"""The @udf decorator and registry."""

import ast

import pytest

from repro.errors import UDFError
from repro.udfgen.decorators import get_spec, udf, udf_registry
from repro.udfgen.iotypes import literal, relation, secure_transfer, transfer


@udf(x=relation(), k=literal(), return_type=[transfer()])
def sample_step(x, k):
    return {"k": k}


class TestDecorator:
    def test_spec_attached(self):
        spec = get_spec(sample_step)
        assert spec.input_names == ["x", "k"]
        assert [iotype.kind for iotype in spec.outputs] == ["transfer"]
        assert spec.name in udf_registry

    def test_source_captured_without_decorator(self):
        spec = get_spec(sample_step)
        assert spec.source.startswith("def sample_step")
        assert "@udf" not in spec.source

    def test_function_still_callable(self):
        assert sample_step(None, 5) == {"k": 5}

    def test_input_type_lookup(self):
        spec = get_spec(sample_step)
        assert spec.input_type("k").kind == "literal"
        with pytest.raises(UDFError):
            spec.input_type("missing")

    def test_parameter_mismatch_rejected(self):
        with pytest.raises(UDFError, match="missing types"):
            @udf(return_type=transfer())
            def missing_types(x):
                return {}

    def test_extra_parameter_rejected(self):
        with pytest.raises(UDFError, match="unknown parameters"):
            @udf(x=relation(), y=relation(), return_type=transfer())
            def extra(x):
                return {}

    def test_zero_outputs_rejected(self):
        with pytest.raises(UDFError):
            @udf(x=relation(), return_type=[])
            def no_outputs(x):
                return {}

    def test_literal_not_valid_output(self):
        with pytest.raises(UDFError):
            @udf(x=relation(), return_type=literal())
            def bad_output(x):
                return 1

    def test_relation_not_valid_output(self):
        with pytest.raises(UDFError, match="not a valid UDF output"):
            @udf(x=relation(), return_type=relation())
            def bad_output2(x):
                return x

    def test_second_output_rejected(self):
        with pytest.raises(UDFError, match="exactly one output, got 2"):
            @udf(x=relation(), return_type=[transfer(), secure_transfer()])
            def two_outputs(x):
                return {}, {}

    def test_secure_transfer_not_valid_input(self):
        with pytest.raises(UDFError, match="not a valid input kind"):
            @udf(x=secure_transfer(), return_type=transfer())
            def bad_input(x):
                return {}

    def test_single_return_type_accepted(self):
        @udf(x=relation(), return_type=transfer())
        def single(x):
            return {}

        assert len(get_spec(single).outputs) == 1

    def test_get_spec_requires_decoration(self):
        def plain():
            pass

        with pytest.raises(UDFError):
            get_spec(plain)


class TestRegistry:
    def test_lookup_unknown(self):
        with pytest.raises(UDFError):
            udf_registry.get("no_such_udf")

    def test_names_sorted(self):
        names = udf_registry.names()
        assert names == sorted(names)


class TestRegisteredAlgorithms:
    """Every ``@udf`` the demo algorithms register uses only the kinds the
    generator keeps: relation, literal and transfer inputs, and one
    transfer or secure_transfer output."""

    def specs(self):
        import repro.algorithms  # noqa: F401 (registers every algorithm's UDFs)

        return [
            udf_registry.get(name)
            for name in udf_registry.names()
            if name.startswith("repro_algorithms_")
        ]

    def test_kind_surface(self):
        specs = self.specs()
        assert len(specs) == 34
        inputs = [iotype.kind for spec in specs for _, iotype in spec.inputs]
        assert set(inputs) == {"relation", "literal", "transfer"}
        assert inputs.count("transfer") == 1
        outputs = [[iotype.kind for iotype in spec.outputs] for spec in specs]
        assert all(len(kinds) == 1 for kinds in outputs)
        assert sorted(kinds[0] for kinds in outputs) == ["secure_transfer"] * 31 + ["transfer"] * 3

    def test_no_two_udfs_share_a_body(self):
        """A local step computes a statistic, so two algorithms that need the
        same statistic name the same UDF rather than copies of it."""
        bodies = {}
        for spec in self.specs():
            body = _normalised_body(spec.source)
            assert body not in bodies, f"{spec.name} repeats {bodies[body]}"
            bodies[body] = spec.name


def _normalised_body(source):
    """``ast.dump`` of a function's body without its docstring, with the
    parameters renamed by position."""
    function = ast.parse(source).body[0]
    names = {arg.arg: f"_p{i}" for i, arg in enumerate(function.args.args)}

    class Rename(ast.NodeTransformer):
        def visit_Name(self, node):
            node.id = names.get(node.id, node.id)
            return node

    body = function.body
    if ast.get_docstring(function) is not None:
        body = body[1:]
    return ast.dump(ast.Module(body=[Rename().visit(node) for node in body], type_ignores=[]))
