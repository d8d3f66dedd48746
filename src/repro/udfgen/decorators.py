"""The ``@udf`` decorator: attach typed I/O to plain Python functions."""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import UDFError
from repro.udfgen.iotypes import INPUT_KINDS, OUTPUT_KINDS, IOType


@dataclass(frozen=True)
class UDFSpec:
    """A registered, typed UDF: the unit the generator translates to SQL."""

    name: str
    func: Callable[..., Any]
    inputs: tuple[tuple[str, IOType], ...]
    outputs: tuple[IOType, ...]
    source: str = field(repr=False, default="")

    @property
    def input_names(self) -> list[str]:
        return [name for name, _ in self.inputs]

    def input_type(self, name: str) -> IOType:
        for pname, iotype in self.inputs:
            if pname == name:
                return iotype
        raise UDFError(f"UDF {self.name!r} has no parameter {name!r}")


class UDFRegistry:
    """Process-wide registry of decorated UDFs, keyed by qualified name."""

    def __init__(self) -> None:
        self._specs: dict[str, UDFSpec] = {}

    def register(self, spec: UDFSpec) -> None:
        self._specs[spec.name] = spec

    def get(self, name: str) -> UDFSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise UDFError(f"no registered UDF named {name!r}")
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self) -> list[str]:
        return sorted(self._specs)


udf_registry = UDFRegistry()


def udf(return_type: IOType | Sequence[IOType], **parameter_types: IOType) -> Callable:
    """Declare a federated computation step with typed inputs and one output.

    Example (the shape of the paper's Figure 2 local step)::

        @udf(
            x=relation(),
            y=relation(),
            return_type=secure_transfer(),
        )
        def fit_local(x, y):
            ...
            return summary

    ``return_type`` is a ``transfer()`` or ``secure_transfer()``, alone or
    as a one-item list.  The decorated function stays directly callable (for
    unit tests); the generator uses the captured source to emit the SQL UDF
    body.
    """
    outputs = tuple(return_type) if isinstance(return_type, (list, tuple)) else (return_type,)
    if len(outputs) != 1:
        raise UDFError(f"a UDF declares exactly one output, got {len(outputs)}")
    if not isinstance(outputs[0], OUTPUT_KINDS):
        raise UDFError(f"{type(outputs[0]).__name__} is not a valid UDF output kind")

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(func)
        parameters = list(signature.parameters)
        declared = set(parameter_types)
        if declared != set(parameters):
            missing = set(parameters) - declared
            extra = declared - set(parameters)
            raise UDFError(
                f"UDF {func.__name__!r}: parameter/type mismatch"
                + (f"; missing types for {sorted(missing)}" if missing else "")
                + (f"; unknown parameters {sorted(extra)}" if extra else "")
            )
        inputs = []
        for pname in parameters:
            iotype = parameter_types[pname]
            if not isinstance(iotype, INPUT_KINDS):
                raise UDFError(
                    f"UDF {func.__name__!r}: {type(iotype).__name__} is not a valid input kind"
                )
            inputs.append((pname, iotype))
        qualified = f"{func.__module__}.{func.__qualname__}".replace(".", "_").replace(
            "<locals>", "local"
        )
        source = _clean_source(func)
        spec = UDFSpec(qualified, func, tuple(inputs), outputs, source)
        udf_registry.register(spec)
        func.__udf_spec__ = spec  # type: ignore[attr-defined]
        return func

    return decorate


def _clean_source(func: Callable[..., Any]) -> str:
    """Extract the function source without its decorator lines."""
    try:
        raw = inspect.getsource(func)
    except (OSError, TypeError):
        return ""
    lines = textwrap.dedent(raw).splitlines()
    start = 0
    for index, line in enumerate(lines):
        if line.lstrip().startswith("def "):
            start = index
            break
    return "\n".join(lines[start:])


def get_spec(func: Callable[..., Any]) -> UDFSpec:
    """The UDFSpec attached by ``@udf``."""
    spec = getattr(func, "__udf_spec__", None)
    if spec is None:
        raise UDFError(f"{func!r} is not decorated with @udf")
    return spec
