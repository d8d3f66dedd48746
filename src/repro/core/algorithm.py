"""The algorithm base class: the Figure 2 developer API.

An algorithm flow subclasses :class:`FederatedAlgorithm`, declares its
variable needs and parameter specifications as class attributes, and
implements ``run`` using ``self.local_run`` / ``self.global_run`` /
``self.ctx.get_transfer_data`` — the exact surface the paper's Figure 2 shows for
linear regression.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Mapping, Sequence

from repro.core.context import DataView, ExecutionContext
from repro.core.specs import ParameterSpec
from repro.core.state import GlobalHandle, LocalHandle
from repro.errors import AlgorithmError


class FederatedAlgorithm:
    """Base class for MIP algorithms.

    Class attributes declared by subclasses:

    - ``name`` — registry key (e.g. ``"linear_regression"``),
    - ``label`` — human-readable name shown in the UI,
    - ``needs_y`` / ``needs_x`` — variable requirements (``"required"``,
      ``"optional"`` or ``"none"``),
    - ``y_types`` / ``x_types`` — accepted variable kinds
      (``"numeric"`` / ``"nominal"``),
    - ``parameters`` — a tuple of :class:`ParameterSpec`.
    """

    name: ClassVar[str] = ""
    label: ClassVar[str] = ""
    needs_y: ClassVar[str] = "required"
    needs_x: ClassVar[str] = "none"
    y_types: ClassVar[tuple[str, ...]] = ("numeric",)
    x_types: ClassVar[tuple[str, ...]] = ("numeric", "nominal")
    parameters: ClassVar[tuple[ParameterSpec, ...]] = ()

    def __init__(
        self,
        context: ExecutionContext,
        y: Sequence[str] | None = None,
        x: Sequence[str] | None = None,
        parameters: Mapping[str, Any] | None = None,
        metadata: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        self.ctx = context
        self.y = list(y or [])
        self.x = list(x or [])
        self.params = dict(parameters or {})
        #: Common Data Element metadata for the experiment's variables:
        #: {variable: {"is_categorical": bool, "enumerations": [...], ...}}.
        self.metadata = {k: dict(v) for k, v in (metadata or {}).items()}

    # ------------------------------------------------------- runtime surface

    def local_run(
        self,
        func: Callable[..., Any],
        keyword_args: Mapping[str, Any],
        share_to_global: Sequence[bool],
    ) -> LocalHandle | tuple[LocalHandle, ...]:
        """Run a local computation step on the workers (paper Figure 2)."""
        return self.ctx.local_run(func, keyword_args, share_to_global)

    def global_run(
        self,
        func: Callable[..., Any],
        keyword_args: Mapping[str, Any],
        share_to_locals: Sequence[bool],
    ) -> GlobalHandle | tuple[GlobalHandle, ...]:
        """Run a global step on the master (paper Figure 2)."""
        return self.ctx.global_run(func, keyword_args, share_to_locals)

    def data_view(self, variables: Sequence[str], dropna: bool = True) -> DataView:
        """Declare the slice of primary data a local step will read."""
        if not variables:
            raise AlgorithmError("a data view needs at least one variable")
        return DataView.of(variables, dropna)
