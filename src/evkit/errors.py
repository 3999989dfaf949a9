"""Error hierarchy shared across the toolkit.

Every named failure mode raised anywhere in evkit derives from EvkitError,
so callers (and the CLI) can catch one base class and still dispatch on the
concrete type.  Decoders in particular promise to raise only these types on
arbitrary byte input, never builtin exceptions.
"""

from __future__ import annotations


class EvkitError(Exception):
    """Base class of all toolkit errors."""


class IndexedError(EvkitError):
    """Error pinned to a position in the input (event index or line number)."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        detail = f" ({message})" if message else ""
        super().__init__(f"at index {index}{detail}")


# --- event stream validation ------------------------------------------------

class NonMonotoneTimestamp(IndexedError):
    """Timestamp decreases relative to the previous event (or is negative)."""


class OutOfBounds(IndexedError):
    """Event coordinates fall outside the sensor geometry."""


class BadPolarity(IndexedError):
    """Event polarity is not 0 or 1."""


# --- windowing / representation ----------------------------------------------

class ZeroWindow(EvkitError):
    """Window length must be a positive number of microseconds."""


class EventOutsideWindow(EvkitError):
    """An event's timestamp is not inside the accumulation window."""


# --- binary containers --------------------------------------------------------

class BadMagic(EvkitError):
    """Container does not start with the expected magic bytes."""


class VersionUnsupported(EvkitError):
    """Container magic is recognized but the version is not supported."""


class TruncatedFile(EvkitError):
    """Byte length is inconsistent with the declared record layout."""


class BadHeader(EvkitError):
    """Header fields are malformed or required fields are missing."""


class NonFiniteValue(IndexedError):
    """A float EVF value is NaN or infinite; index is its flat (c, y, x) position."""


class ReservedByteSet(IndexedError):
    """An EVS record's reserved byte is not 0; index is the record's."""


class ParseError(IndexedError):
    """A text record is malformed; index is the 1-based line number."""


# --- outputs ------------------------------------------------------------------

class InsufficientSpace(EvkitError):
    """A command's output would not fit in the free space where it is written."""


# --- geometry / augmentation ---------------------------------------------------

class NotDivisible(EvkitError):
    """Frame dimensions are not divisible by the requested factor."""


class SingularTransform(EvkitError):
    """Affine transform's linear part is (near-)singular and cannot be inverted."""


# --- temporal module ------------------------------------------------------------

class ShapeMismatch(EvkitError):
    """Tensor shapes are inconsistent with the module parameters."""


# --- sampler / evaluation ----------------------------------------------------------

class EmptyDataset(EvkitError):
    """No sequences available to plan an epoch over."""


class NoGroundTruth(EvkitError):
    """Evaluation requires at least one ground-truth box after filtering."""
