"""lmtk: analysis toolkit for term rewriting systems.

Core surface: parse a system (`trs_format.parse_trs`), check whether it is
an LM-system (`checker.lm_verdict`), compute its forward closure
(`closure.fc_iterate`), and encode counter machines into cap-problem
instances (`minsky.encode`, `minsky.cap_search`).
"""

from .terms import (
    App,
    InvalidPositionError,
    Position,
    Subst,
    Symbol,
    Term,
    Var,
    enumerate_terms,
    match_term,
    mgu,
    positions,
    render_term,
    replace_at,
    substitute,
    subterm_at,
)
from .rewriting import (
    DEFAULT_FUEL,
    FuelExhausted,
    NormalForms,
    RewriteStep,
    Rule,
    Trs,
    apply_rule,
    eps_normal_form,
    is_eps_irreducible,
    is_innermost_redex,
    joinable,
    nf,
    normalize,
    odp,
    rewrite_at,
    subterm_collapse_search,
)
from .overlaps import (
    CriticalPair,
    Equation,
    critical_pairs,
    nosup,
    paramodulation_candidates,
    rhs_closure,
    rhs_critical_pairs,
)
from .closure import (
    FcCandidate,
    FcTrace,
    fc_iterate,
    fc_step,
    innermost_one_step_check,
    is_forward_closed,
    is_redundant_approx,
)
from .checker import (
    CheckOptions,
    LmReport,
    almost_left_reduce,
    check_confluence,
    check_termination,
    consequence_checks,
    is_quasi_deterministic,
    is_variable_preserving,
    lm_verdict,
    right_reduce,
)
from .minsky import (
    Cap,
    CapInstance,
    Config,
    MinskyMachine,
    Transition,
    canonical_cap,
    cap_search,
    encode,
    encoding_precedence,
    parse_machine,
    simulate,
    validate_machine,
)
from .trs_format import ParseError, parse_term, parse_trs, render_trs

__version__ = "0.1.0"
