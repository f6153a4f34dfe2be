"""lmtk: analysis toolkit for term rewriting systems.

Core surface: parse a system (`trs_format.parse_trs`), check whether it is
an LM-system (`checker.lm_verdict`), compute its forward closure
(`closure.fc_iterate`), and encode counter machines into cap-problem
instances (`minsky.encode`, `minsky.cap_search`). Every name below is
called by this pipeline, the CLI or the benchmark. One rule at one
position is `apply_rule`; normal forms come from `normalize` (with its
trace), `nf` or, for many terms, `NormalForms`.
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
    render_term,
    replace_at,
    substitute,
    subterm_at,
    subterms,
)
from .rewriting import (
    DEFAULT_FUEL,
    FuelExhausted,
    NormalForms,
    RewriteStep,
    Rule,
    Trs,
    apply_rule,
    is_eps_irreducible,
    nf,
    normalize,
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
    RuleIndex,
    fc_iterate,
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
