"""UDFGenerator: JIT-translate procedural Python into SQL UDF applications.

The paper (§2, *UDFGenerator*): "UDFGenerator follows a UDF-to-SQL approach
and JIT translates the procedural Python code to semantically equal
declarative SQL code.  To deal with the dynamic Python types, the Python
functions are wrapped with a decorator that specifies their input/output
types.  SQL loopback queries, which enable executing SQL in a Python UDF,
handle the multiple inputs and outputs of a Python function."

This package provides exactly that pipeline:

1. the algorithm developer decorates a plain Python function with ``@udf``
   and typed input/output markers (:mod:`repro.udfgen.iotypes`),
2. :func:`repro.udfgen.generator.generate_udf_application` turns one call of
   that function into SQL — a ``CREATE FUNCTION ... LANGUAGE PYTHON`` whose
   body embeds the function source plus serialization glue, and the
   statement ``SELECT * FROM <function>(?)`` — plus the *application plan*
   (literal values and input queries) that binds to the ``?``,
3. the node's engine executes the statement with the plan bound, once
   parsed per statement text, and the node registers the result as the
   step's output table; relation and transfer inputs are read through
   loopback queries from inside the UDF body, which works on a private
   copy of its plan.

A UDF takes ``relation()``, ``literal()`` and ``transfer()`` inputs and
returns exactly one ``transfer()`` or ``secure_transfer()``: the kinds the
registered algorithms use.
"""

from repro.udfgen.decorators import UDFSpec, udf, udf_registry
from repro.udfgen.generator import (
    FusionStep,
    StepOutput,
    UDFApplication,
    generate_fused_application,
    generate_udf_application,
    run_udf_application,
)
from repro.udfgen.iotypes import (
    literal,
    relation,
    secure_transfer,
    transfer,
)

__all__ = [
    "FusionStep",
    "StepOutput",
    "UDFApplication",
    "UDFSpec",
    "generate_fused_application",
    "generate_udf_application",
    "literal",
    "relation",
    "run_udf_application",
    "secure_transfer",
    "transfer",
    "udf",
    "udf_registry",
]
