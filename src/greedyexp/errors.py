"""Exception types shared across the package, and the config rules that raise them."""

import numbers


class GreedyExpansionError(Exception):
    """Base class for all package-specific errors."""


class EmptyVectorError(GreedyExpansionError):
    """Raised when a selection oracle is queried with an empty vector."""


class NoAdmissibleAtomError(GreedyExpansionError):
    """A chosen atom fails the weak greedy condition <f, atom> >= t * sup; the
    engine checks it for every policy."""


class IndexPastEndError(GreedyExpansionError):
    """An explicit sequence or selection plan was evaluated past its length."""


class ZeroAtomError(GreedyExpansionError):
    """A dictionary atom was supplied with norm below the renormalization floor."""


class SupportOutsideEPrimeError(GreedyExpansionError):
    """An augmenting atom touches a coordinate outside the declared index set."""


class NotOrthogonalError(GreedyExpansionError):
    """A pushforward matrix deviates from orthogonality beyond tolerance."""


class ConfigInvalidError(GreedyExpansionError):
    """A configuration object violates its invariants or cannot be parsed."""


class PreconditionUnmetError(GreedyExpansionError):
    """A verification was requested on a trace window where it does not apply."""


class PlanConstructionError(GreedyExpansionError):
    """The adversarial plan builder could not satisfy one of its postconditions."""


class UnknownAtomError(GreedyExpansionError):
    """An atom id does not belong to the dictionary it was resolved against."""


def is_number(value, kind=numbers.Real) -> bool:
    """Is value an instance of kind, numbers.Real or numbers.Integral, numpy's
    numbers included? A bool is neither: true is no parameter and no count."""
    return isinstance(value, kind) and not isinstance(value, bool)


def to_float(value, name: str) -> float:
    """float(value) for a number by is_number. An integer too large for a
    float (401 digits, say), which float() and the math module refuse with
    OverflowError, raises ConfigInvalidError naming it instead."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigInvalidError(f"{name} is an integer too large for a float") from exc


def parse_tagged(spec, builders: dict, section: str):
    """Call the builder that spec's 'kind' tag names with the whole spec; raw
    KeyError, TypeError, ValueError and OverflowError from it come back as
    ConfigInvalidError, and so does the RecursionError of a spec whose
    builders nest too deeply (a pushforward of a pushforward of ...)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigInvalidError(f"{section} spec must be an object with a 'kind' tag")
    kind = spec["kind"]
    builder = builders.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ConfigInvalidError(f"unknown {section} kind {kind!r}")
    try:
        return builder(spec)
    except KeyError as exc:
        raise ConfigInvalidError(f"{section} spec for kind={kind!r} is missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalidError(f"bad {section} spec: {exc}") from exc
    except RecursionError as exc:
        raise ConfigInvalidError(f"{section} spec nested too deeply") from exc
