"""Declared array contracts with optional runtime enforcement.

The pipeline's correctness rests on array invariants that type
annotations alone cannot enforce at runtime: index arrays are ``int64``
everywhere (platform ``int`` is ``int32`` on Windows), CSR query
results must satisfy ``offsets[-1] == len(indices)``, popularity is
finite ``float64``, and batched results align element-for-element with
their inputs.  :func:`array_contract` makes those invariants explicit
at the function boundary::

    @array_contract(
        poi_xy=ArraySpec(dtype="float64", cols=2, coerced=True),
        ret=ArraySpec(dtype="float64", ndim=1, finite=True,
                      same_length_as="poi_xy"),
    )
    def compute_popularity(poi_xy, stay_xy, r3sigma):
        ...

By default the decorator is a **zero-overhead no-op**: it attaches the
declared contract as ``__array_contract__`` (for introspection and for
reprolint's static cross-check, rule RPL009) and returns the function
unchanged — no wrapper, no per-call cost.  Setting ``REPRO_SANITIZE=1``
in the environment *before import* compiles every decorated boundary
into a checking wrapper that validates arguments and return values on
each call and raises :class:`ContractViolation` on the first breach —
ASan-style wiring for numpy (``docs/STATIC_ANALYSIS.md`` documents the
mode and its measured overhead).

Spec dtypes are canonical numpy dtype *names* (``"float64"``,
``"int64"``, ``"bool"``) — strings, so reprolint can read them straight
from the AST, and canonical, so a platform-dependent spec like
``dtype="int"`` is rejected at decoration time.
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.obs import get_registry

__all__ = [
    "ArraySpec",
    "CSRSpec",
    "SameLength",
    "Spec",
    "Contract",
    "ContractViolation",
    "array_contract",
    "sanitize_enabled",
]

F = TypeVar("F", bound=Callable[..., Any])


class ContractViolation(ValueError):
    """A value crossed a decorated boundary in breach of its contract."""


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests runtime enforcement."""
    return os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0")


@dataclass(frozen=True)
class ArraySpec:
    """Contract for one ndarray-valued argument or return value.

    Parameters
    ----------
    dtype:
        Canonical numpy dtype name (``"float64"``, ``"int64"``,
        ``"bool"``).  Non-canonical, platform-dependent names
        (``"int"``) are rejected at construction.
    ndim:
        Required number of dimensions.
    cols:
        Required second-axis length for ``(n, cols)`` arrays.  Under
        ``coerced=True`` the candidate is reshaped ``(-1, cols)`` first,
        mirroring how the kernels themselves normalise pair arrays.
    finite:
        Require every element to be finite (no NaN/inf).
    same_length_as:
        Name of a parameter whose validated length this value must
        match (shape coupling, e.g. one popularity per POI).
    coerced:
        The callee coerces its input via ``np.asarray`` — validate the
        coerced form rather than requiring an exact ndarray.  Return
        specs should stay strict (``coerced=False``): outputs are fully
        under the callee's control.
    attr:
        Dotted attribute path to drill into before validating (e.g.
        ``"csd.unit_of"`` on a result object).
    item:
        Tuple index to drill into before ``attr`` (for tuple returns).
    optional:
        Permit ``None``.
    """

    dtype: Optional[str] = None
    ndim: Optional[int] = None
    cols: Optional[int] = None
    finite: bool = False
    same_length_as: Optional[str] = None
    coerced: bool = False
    attr: Optional[str] = None
    item: Optional[int] = None
    optional: bool = False

    def __post_init__(self) -> None:
        if self.dtype is not None:
            canonical = np.dtype(self.dtype).name
            if canonical != self.dtype:
                raise TypeError(
                    f"ArraySpec dtype {self.dtype!r} is not canonical "
                    f"(did you mean {canonical!r}?); platform-dependent "
                    "dtype names are banned by the array contract"
                )


@dataclass(frozen=True)
class CSRSpec:
    """Contract for a CSR ``(indices, offsets)`` batched-query result.

    Checks both halves are 1-D ``int64`` and that they couple:
    ``offsets[0] == 0``, ``offsets`` non-decreasing, and
    ``offsets[-1] == len(indices)``.  ``centers`` names the parameter
    whose validated row count ``m`` pins ``len(offsets) == m + 1``.
    """

    centers: Optional[str] = None


@dataclass(frozen=True)
class SameLength:
    """Contract for any sized value: ``len(value) == len(param)``."""

    of: str


Spec = Union[ArraySpec, CSRSpec, SameLength]


@dataclass(frozen=True)
class Contract:
    """The declared contract attached to a function as
    ``__array_contract__``."""

    params: Mapping[str, Spec]
    ret: Tuple[Spec, ...]
    enforced: bool


def _drill(value: Any, spec: ArraySpec, where: str) -> Any:
    if spec.item is not None:
        try:
            value = value[spec.item]
        except (TypeError, IndexError, KeyError) as exc:
            raise ContractViolation(
                f"{where}: cannot index item {spec.item} of "
                f"{type(value).__name__}: {exc}"
            ) from None
    if spec.attr is not None:
        for part in spec.attr.split("."):
            try:
                value = getattr(value, part)
            except AttributeError:
                raise ContractViolation(
                    f"{where}: {type(value).__name__} has no attribute "
                    f"{part!r} (contract drills into {spec.attr!r})"
                ) from None
    return value


def _validate_array(
    spec: ArraySpec,
    value: Any,
    where: str,
    lengths: Mapping[str, int],
) -> Optional[int]:
    """Check one value against ``spec``; returns its length (for shape
    coupling) or None when the spec is optional and the value absent."""
    value = _drill(value, spec, where)
    if value is None:
        if spec.optional:
            return None
        raise ContractViolation(f"{where}: required array is None")
    dt = np.dtype(spec.dtype) if spec.dtype is not None else None
    if spec.coerced:
        try:
            arr = np.asarray(value, dtype=dt)
        except (TypeError, ValueError) as exc:
            raise ContractViolation(
                f"{where}: not coercible to "
                f"{spec.dtype or 'an array'}: {exc}"
            ) from None
        if spec.cols is not None:
            try:
                arr = arr.reshape(-1, spec.cols)
            except ValueError:
                raise ContractViolation(
                    f"{where}: shape {arr.shape} does not reshape to "
                    f"(-1, {spec.cols})"
                ) from None
    else:
        if not isinstance(value, np.ndarray):
            raise ContractViolation(
                f"{where}: expected ndarray, got {type(value).__name__}"
            )
        arr = value
        if dt is not None and arr.dtype != dt:
            raise ContractViolation(
                f"{where}: dtype {arr.dtype} violates the declared "
                f"{spec.dtype} contract"
            )
        if spec.cols is not None and (
            arr.ndim != 2 or arr.shape[1] != spec.cols
        ):
            raise ContractViolation(
                f"{where}: shape {arr.shape} is not (n, {spec.cols})"
            )
    if spec.ndim is not None and arr.ndim != spec.ndim:
        raise ContractViolation(
            f"{where}: ndim {arr.ndim} != required {spec.ndim}"
        )
    if spec.finite and arr.size:
        finite = np.isfinite(arr)
        if not finite.all():
            index = int(np.flatnonzero(~finite.ravel())[0])
            raise ContractViolation(
                f"{where}: non-finite value "
                f"{arr.ravel()[index]!r} at flat index {index} "
                "(contract requires finiteness)"
            )
    if spec.same_length_as is not None:
        expected = lengths.get(spec.same_length_as)
        if expected is not None and len(arr) != expected:
            raise ContractViolation(
                f"{where}: length {len(arr)} != len("
                f"{spec.same_length_as}) == {expected} "
                "(declared shape coupling)"
            )
    return int(len(arr)) if arr.ndim else None


def _validate_csr(
    spec: CSRSpec,
    value: Any,
    where: str,
    lengths: Mapping[str, int],
) -> Optional[int]:
    if not isinstance(value, tuple) or len(value) != 2:
        raise ContractViolation(
            f"{where}: CSR result must be an (indices, offsets) tuple, "
            f"got {type(value).__name__}"
        )
    indices, offsets = value
    for label, half in (("indices", indices), ("offsets", offsets)):
        if not isinstance(half, np.ndarray):
            raise ContractViolation(
                f"{where}: CSR {label} must be ndarray, got "
                f"{type(half).__name__}"
            )
        if half.dtype != np.dtype(np.int64):
            raise ContractViolation(
                f"{where}: CSR {label} dtype {half.dtype} violates the "
                "int64 contract"
            )
        if half.ndim != 1:
            raise ContractViolation(
                f"{where}: CSR {label} must be 1-D, got ndim {half.ndim}"
            )
    if len(offsets) < 1 or int(offsets[0]) != 0:
        raise ContractViolation(
            f"{where}: CSR offsets must start at 0"
        )
    if len(offsets) > 1 and bool((np.diff(offsets) < 0).any()):
        raise ContractViolation(
            f"{where}: CSR offsets must be non-decreasing"
        )
    if int(offsets[-1]) != len(indices):
        raise ContractViolation(
            f"{where}: CSR offsets[-1] == {int(offsets[-1])} but "
            f"len(indices) == {len(indices)}; the halves are decoupled"
        )
    if spec.centers is not None:
        m = lengths.get(spec.centers)
        if m is not None and len(offsets) != m + 1:
            raise ContractViolation(
                f"{where}: len(offsets) == {len(offsets)} but "
                f"len({spec.centers}) + 1 == {m + 1}"
            )
    return None


def _validate_same_length(
    spec: SameLength,
    value: Any,
    where: str,
    lengths: Mapping[str, int],
) -> Optional[int]:
    expected = lengths.get(spec.of)
    try:
        actual = len(value)
    except TypeError:
        raise ContractViolation(
            f"{where}: value of type {type(value).__name__} has no "
            f"length to couple to {spec.of!r}"
        ) from None
    if expected is not None and actual != expected:
        raise ContractViolation(
            f"{where}: length {actual} != len({spec.of}) == {expected}"
        )
    return actual


def _validate(
    spec: Spec, value: Any, where: str, lengths: Mapping[str, int]
) -> Optional[int]:
    if isinstance(spec, ArraySpec):
        return _validate_array(spec, value, where, lengths)
    if isinstance(spec, CSRSpec):
        return _validate_csr(spec, value, where, lengths)
    return _validate_same_length(spec, value, where, lengths)


def _as_specs(ret: Union[None, Spec, Sequence[Spec]]) -> Tuple[Spec, ...]:
    if ret is None:
        return ()
    if isinstance(ret, (ArraySpec, CSRSpec, SameLength)):
        return (ret,)
    return tuple(ret)


def _coupled_params(spec: Spec) -> Tuple[str, ...]:
    if isinstance(spec, ArraySpec) and spec.same_length_as is not None:
        return (spec.same_length_as,)
    if isinstance(spec, CSRSpec) and spec.centers is not None:
        return (spec.centers,)
    if isinstance(spec, SameLength):
        return (spec.of,)
    return ()


def array_contract(
    ret: Union[None, Spec, Sequence[Spec]] = None,
    enforce: Optional[bool] = None,
    **param_specs: Spec,
) -> Callable[[F], F]:
    """Declare (and optionally enforce) array contracts on a function.

    Keyword arguments name parameters of the decorated function; ``ret``
    declares the return value (one spec, or a sequence all applied to
    the same result).  Spec kwargs must be literals so reprolint's
    cross-module pass (RPL009) can read the declaration from the AST
    and cross-check it against the function's ``repro.types``
    annotations.

    ``enforce`` overrides the ``REPRO_SANITIZE`` environment switch
    (tests use ``enforce=True`` to exercise the checking wrapper
    deterministically).  Unknown parameter names and dangling shape
    couplings are rejected at decoration time in *both* modes, so a
    drifted contract fails the import, not the 40th minute of a run.
    """
    ret_specs = _as_specs(ret)

    def decorate(func: F) -> F:
        sig = inspect.signature(func)
        for name in param_specs:
            if name not in sig.parameters:
                raise TypeError(
                    f"@array_contract on {func.__qualname__} names "
                    f"unknown parameter {name!r}"
                )
        for spec in tuple(param_specs.values()) + ret_specs:
            for target in _coupled_params(spec):
                if target not in sig.parameters:
                    raise TypeError(
                        f"@array_contract on {func.__qualname__} "
                        f"couples to unknown parameter {target!r}"
                    )
        enabled = sanitize_enabled() if enforce is None else bool(enforce)
        contract = Contract(
            params=dict(param_specs), ret=ret_specs, enforced=enabled
        )
        if not enabled:
            setattr(func, "__array_contract__", contract)
            return func

        coupled = frozenset(
            target
            for spec in tuple(param_specs.values()) + ret_specs
            for target in _coupled_params(spec)
        )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            reg = get_registry()
            reg.counter("contracts.checks").inc()
            # Seed coupling targets with their raw lengths so couplings
            # to spec-less parameters still bind; validated specs
            # overwrite with the (possibly reshaped) canonical length.
            lengths: Dict[str, int] = {}
            for name in coupled:
                try:
                    lengths[name] = len(bound.arguments.get(name))  # type: ignore[arg-type]
                except TypeError:
                    pass
            try:
                for name, spec in param_specs.items():
                    length = _validate(
                        spec,
                        bound.arguments[name],
                        f"{func.__qualname__}({name})",
                        lengths,
                    )
                    if length is not None:
                        lengths[name] = length
                result = func(*args, **kwargs)
                for spec in ret_specs:
                    _validate(
                        spec,
                        result,
                        f"{func.__qualname__} return",
                        lengths,
                    )
            except ContractViolation:
                reg.counter("contracts.violations").inc()
                raise
            return result

        setattr(wrapper, "__array_contract__", contract)
        return wrapper  # type: ignore[return-value]

    return decorate
