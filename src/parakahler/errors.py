"""Exception types shared across the package."""


class DomainError(ValueError):
    """A request that is syntactically fine but mathematically invalid."""


class SingularPointError(DomainError):
    """A chart point where the potential or its metric degenerates."""


class ConfigError(DomainError):
    """Malformed diagram or potential configuration text."""
