"""Tests for constraint generation (L1–L3, H1–H5) and model assembly."""

import pytest

from repro.core.constraints import (
    recombine,
    recombine_predicate,
    split_predicate,
    transfer_predicate,
)
from repro.core.heuristics import HeuristicConfig
from repro.core.model import MethodModel
from repro.core.pfg_builder import build_pfg
from repro.core.priors import (
    KIND_DOMAIN,
    absent_permission_prior,
    concentrated_prior,
)
from repro.permissions import kinds
from repro.permissions.spec import SpecEnvironment
from tests.conftest import build_program, method_ref


def model_for(body, params="Collection<Integer> c", extra="", config=None,
              class_header="class T"):
    program = build_program(
        "%s { @Perm(\"share\") Collection<Integer> entries; %s void m(%s) { %s } }"
        % (class_header, extra, params, body)
    )
    ref = method_ref(program, "T", "m")
    pfg = build_pfg(program, ref)
    return MethodModel(program, pfg, config or HeuristicConfig()).build()


def marginal_of(model, result, node):
    variable = model.vars.kind(node)
    return dict(zip(variable.domain, result.marginals[variable.name]))


class TestSplitPredicates:
    def test_none_splits_only_to_none(self):
        assert split_predicate("none", "none", "none")
        assert not split_predicate("none", "pure", "none")

    def test_none_given_keeps_node_kind(self):
        assert split_predicate("full", "none", "full")
        assert not split_predicate("full", "none", "pure")

    def test_whole_transfer_respects_satisfies(self):
        assert split_predicate("unique", "full", "none")
        assert not split_predicate("pure", "full", "none")

    def test_real_split_delegates_to_legality(self):
        assert split_predicate("unique", "share", "share")
        assert not split_predicate("unique", "full", "full")

    def test_transfer_none_node(self):
        assert transfer_predicate("none", "none")
        assert not transfer_predicate("none", "pure")

    def test_transfer_weakening(self):
        assert transfer_predicate("unique", "pure")
        assert not transfer_predicate("pure", "unique")


class TestRecombine:
    def test_none_is_identity(self):
        assert recombine("none", "full") == "full"
        assert recombine("pure", "none") == "pure"

    def test_stronger_absorbs_weaker(self):
        assert recombine("full", "pure") == "full"
        assert recombine("pure", "unique") == "unique"

    def test_incomparable_falls_to_weaker(self):
        assert recombine("share", "immutable") == "immutable"

    def test_predicate_matches_function(self):
        for a in KIND_DOMAIN:
            for b in KIND_DOMAIN:
                expected = recombine(a, b)
                assert recombine_predicate(expected, a, b)


class TestPriors:
    def test_concentrated_prior_sums_to_one(self):
        prior = concentrated_prior(KIND_DOMAIN, "full", 0.9)
        assert prior["full"] == pytest.approx(0.9)
        assert sum(prior.values()) == pytest.approx(1.0)

    def test_absent_prior_concentrates_on_none(self):
        prior = absent_permission_prior(0.9)
        assert prior["none"] == pytest.approx(0.9)

    def test_spec_environment_inherits_supertype(self):
        program = build_program(
            "class Sub implements Iterator<Integer> { Integer next() { return null; } }"
        )
        env = SpecEnvironment(program)
        ref = method_ref(program, "Sub", "next")
        assert env.is_annotated(ref)
        assert not env.is_directly_annotated(ref)
        assert env.spec_of(ref).requires[0].state == "HASNEXT"

    def test_annotated_callee_sets_call_node_priors(self):
        model = model_for("Iterator<Integer> it = c.iterator(); boolean b = it.hasNext();")
        has_next_pre = [
            node for node in model.pfg.nodes if node.label == "pre hasNext(this)"
        ][0]
        variable = model.vars.kind(has_next_pre)
        assert variable.prior[variable.index_of("pure")] > 0.8

    def test_result_prior_from_ensures(self):
        model = model_for("Iterator<Integer> it = c.iterator();")
        result = [
            node for node in model.pfg.nodes if node.label == "result iterator()"
        ][0]
        variable = model.vars.kind(result)
        assert variable.prior[variable.index_of("unique")] > 0.8


class TestConstraintEmission:
    def test_logical_constraint_counts(self):
        model = model_for("Iterator<Integer> it = c.iterator();")
        counts = model.generator.counts
        assert counts.get("L1-split", 0) >= 2  # ability + retention
        assert counts.get("L1-eq", 0) >= 1

    def test_l3_emitted_for_field_store(self):
        model = model_for("entries = c;")
        assert model.generator.counts.get("L3", 0) == 1

    def test_h1_on_new(self):
        model = model_for("Object o = new ArrayList<Integer>();")
        assert model.generator.counts.get("H1", 0) == 1

    def test_h2_per_tracked_param(self):
        model = model_for("int x = 0;")
        # this + c
        assert model.generator.counts.get("H2", 0) == 2

    def test_h3_only_on_create_methods(self):
        program = build_program(
            """
            class T {
                @Perm("share") Collection<Integer> entries;
                Iterator<Integer> createIter() { return entries.iterator(); }
                Iterator<Integer> getIter() { return entries.iterator(); }
            }
            """
        )
        config = HeuristicConfig()
        for name, expected in (("createIter", 1), ("getIter", 0)):
            ref = method_ref(program, "T", name)
            model = MethodModel(program, build_pfg(program, ref), config).build()
            assert model.generator.counts.get("H3", 0) == expected

    def test_h4_on_setters(self):
        program = build_program(
            "class T { int f; void setF(int v) { f = v; } }"
        )
        ref = method_ref(program, "T", "setF")
        model = MethodModel(program, build_pfg(program, ref), HeuristicConfig()).build()
        assert model.generator.counts.get("H4", 0) == 2  # pre + post this

    def test_h5_on_sync_targets(self):
        model = model_for("synchronized (c) { int x = 1; }")
        assert model.generator.counts.get("H5", 0) == 1

    def test_heuristics_disabled_in_logical_config(self):
        config = HeuristicConfig.logical_only()
        model = model_for("Object o = new ArrayList<Integer>();", config=config)
        for rule in ("H1", "H2", "H3", "H4", "H5"):
            assert model.generator.counts.get(rule, 0) == 0

    def test_l2_one_of_mode(self):
        config = HeuristicConfig(l2_one_of=True)
        model = model_for(
            "Iterator<Integer> it = c.iterator();"
            "while (it.hasNext()) { Integer v = it.next(); }",
            config=config,
        )
        assert model.generator.counts.get("L2", 0) >= 1


class TestModelInference:
    def test_unique_supply_flows_to_return(self):
        program = build_program(
            "class T { @Perm(\"share\") Collection<Integer> entries;"
            " Iterator<Integer> createIt() { return entries.iterator(); } }"
        )
        ref = method_ref(program, "T", "createIt")
        model = MethodModel(program, build_pfg(program, ref), HeuristicConfig()).build()
        result = model.solve()
        marginal = marginal_of(model, result, model.pfg.result_node)
        assert max(marginal, key=marginal.get) == "unique"

    def test_full_demand_constrains_param_pre(self):
        model = model_for(
            "Integer v = it.next();", params="Iterator<Integer> it"
        )
        result = model.solve()
        pre = model.pfg.param_pre["it"]
        marginal = marginal_of(model, result, pre)
        # Only unique/full can supply a full piece.
        assert marginal["unique"] + marginal["full"] > 0.5
        assert marginal["none"] < 0.15

    def test_unconstrained_param_stays_uniform(self):
        model = model_for("int x = 0;")
        result = model.solve()
        marginal = marginal_of(model, result, model.pfg.param_pre["c"])
        assert abs(marginal["none"] - 1.0 / 6) < 0.02

    def test_field_write_demands_writing_receiver(self):
        program = build_program(
            "class T { int f; void bump() { f = f + 1; } }"
        )
        ref = method_ref(program, "T", "bump")
        model = MethodModel(program, build_pfg(program, ref), HeuristicConfig()).build()
        result = model.solve()
        marginal = marginal_of(model, result, model.pfg.param_pre["this"])
        writing_mass = sum(marginal[k] for k in kinds.WRITING_KINDS)
        readonly_mass = sum(marginal[k] for k in kinds.READ_ONLY_KINDS)
        assert writing_mass > readonly_mass

    def test_state_demand_reaches_param(self):
        model = model_for(
            "Integer v = it.next();", params="Iterator<Integer> it"
        )
        result = model.solve()
        pre = model.pfg.param_pre["it"]
        state_var = model.vars.state(pre)
        assert state_var is not None
        state_marginal = dict(
            zip(state_var.domain, result.marginals[state_var.name])
        )
        assert state_marginal["HASNEXT"] > state_marginal["END"]

    def test_boundary_marginals_cover_all_slots(self):
        model = model_for("Iterator<Integer> it = c.iterator();")
        result = model.solve()
        boundary = model.boundary_marginals(result)
        assert ("pre", "c") in boundary
        assert ("post", "c") in boundary
        assert ("pre", "this") in boundary

    def test_empty_method_has_tiny_model(self):
        program = build_program("class T { int f(int x) { return x; } }")
        ref = method_ref(program, "T", "f")
        model = MethodModel(program, build_pfg(program, ref), HeuristicConfig()).build()
        assert model.graph.variable_count <= 4
