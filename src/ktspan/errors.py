"""Exception types shared across the package."""


class KtspanError(Exception):
    """Base class for package-specific failures."""


class InfeasibleError(KtspanError):
    """No feasible solution exists for the given instance.

    Carries a human-readable diagnostic; solvers attach the first
    obstruction they can identify (e.g. a backbone edge that no
    scorable clique covers).
    """


class InstanceTooLargeError(KtspanError):
    """Instance exceeds a hard safety bound for an exhaustive routine."""


class NotRetainingError(KtspanError):
    """A k-tree does not contain every edge of the required backbone."""
