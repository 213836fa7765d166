"""Exception types shared across the package, and the config parser that raises them."""


class GreedyExpansionError(Exception):
    """Base class for all package-specific errors."""


class EmptyVectorError(GreedyExpansionError):
    """Raised when a selection oracle is queried with an empty vector."""


class NoAdmissibleAtomError(GreedyExpansionError):
    """A scripted atom fails the weak selection inequality."""


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


def parse_tagged(spec, builders: dict, section: str):
    """Call the builder that spec's 'kind' tag names with the whole spec; raw
    KeyError, TypeError and ValueError from it come back as ConfigInvalidError."""
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
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"bad {section} spec: {exc}") from exc
