"""Metamorphic properties of the protocol family.

Rather than checking single outputs, these tests check *relations
between runs* that must hold for any correct implementation of the
functionality — a second, independent line of evidence beyond the
ground-truth comparisons:

* additivity over disjoint selections;
* linearity in the weights;
* invariance of the result under protocol variant;
* composition consistency between the grouped protocol and per-group
  runs, and between distributed partitions and the single-server run.
"""

from hypothesis import given, settings, strategies as st

from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.spfe.batching import BatchedSelectedSumProtocol
from repro.spfe.combined import CombinedSelectedSumProtocol
from repro.spfe.context import ExecutionContext
from repro.spfe.grouped import GroupedSumProtocol
from repro.spfe.multiclient import MultiClientSelectedSumProtocol
from repro.spfe.multidatabase import DistributedSelectedSumProtocol
from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
from repro.spfe.selected_sum import SelectedSumProtocol


def run_plain(database, selection, seed):
    return SelectedSumProtocol(ExecutionContext(rng=seed)).run(
        database, selection
    ).value


class TestAdditivity:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_disjoint_selections_add(self, data):
        n = data.draw(st.integers(2, 50))
        values = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
        owner = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        database = ServerDatabase(values)
        sel_a = [1 if o == 0 else 0 for o in owner]
        sel_b = [1 if o == 1 else 0 for o in owner]
        union = [a | b for a, b in zip(sel_a, sel_b)]
        total_a = run_plain(database, sel_a, "a%d" % n)
        total_b = run_plain(database, sel_b, "b%d" % n)
        total_union = run_plain(database, union, "u%d" % n)
        assert total_a + total_b == total_union

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_weights_are_linear(self, data):
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
        w1 = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        w2 = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        database = ServerDatabase(values)
        combined = [a + b for a, b in zip(w1, w2)]
        assert run_plain(database, combined, "c") == run_plain(
            database, w1, "1"
        ) + run_plain(database, w2, "2")

    def test_complement_selections(self):
        generator = WorkloadGenerator("complement")
        database = generator.database(200)
        selection = generator.random_selection(200, 80)
        complement = [1 - bit for bit in selection]
        everything = run_plain(database, [1] * 200, "all")
        assert run_plain(database, selection, "s") + run_plain(
            database, complement, "c"
        ) == everything == sum(database.values)


class TestVariantAgreement:
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_all_variants_compute_the_same_function(self, data):
        n = data.draw(st.integers(4, 40))
        values = data.draw(
            st.lists(st.integers(0, 2**20), min_size=n, max_size=n)
        )
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        database = ServerDatabase(values)
        outputs = set()
        for i, factory in enumerate(
            (
                lambda ctx: SelectedSumProtocol(ctx),
                lambda ctx: BatchedSelectedSumProtocol(ctx, batch_size=7),
                lambda ctx: PreprocessedSelectedSumProtocol(ctx),
                lambda ctx: CombinedSelectedSumProtocol(ctx, batch_size=5),
                lambda ctx: MultiClientSelectedSumProtocol(ctx, num_clients=2),
            )
        ):
            ctx = ExecutionContext(rng="variant-%d-%d" % (i, n))
            outputs.add(factory(ctx).run(database, bits).value)
        assert len(outputs) == 1


class TestComposition:
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_grouped_equals_per_group_runs(self, data):
        n = data.draw(st.integers(2, 40))
        g = data.draw(st.integers(1, 4))
        values = data.draw(
            st.lists(st.integers(0, 2**16 - 1), min_size=n, max_size=n)
        )
        groups = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, g - 1)),
                min_size=n,
                max_size=n,
            )
        )
        database = ServerDatabase(values, value_bits=16)
        grouped = GroupedSumProtocol(
            ExecutionContext(rng="grp%d" % n)
        ).run_grouped(database, groups, num_groups=g)
        for j in range(g):
            selection = [1 if gr == j else 0 for gr in groups]
            assert grouped[j] == run_plain(database, selection, "pg%d" % j)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_distributed_equals_single_server(self, data):
        sizes = data.draw(
            st.lists(st.integers(1, 25), min_size=2, max_size=4)
        )
        total_n = sum(sizes)
        values = data.draw(
            st.lists(st.integers(0, 999), min_size=total_n, max_size=total_n)
        )
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=total_n, max_size=total_n)
        )
        combined = ServerDatabase(values)
        partitions = []
        offset = 0
        for size in sizes:
            partitions.append(ServerDatabase(values[offset : offset + size]))
            offset += size
        single = run_plain(combined, bits, "single")
        distributed = DistributedSelectedSumProtocol(
            ExecutionContext(rng="dist")
        ).run_distributed(partitions, bits)
        assert distributed.value == single

    def test_sum_invariant_under_key_size(self):
        generator = WorkloadGenerator("keysize")
        database = generator.database(100)
        selection = generator.random_selection(100, 30)
        values = {
            SelectedSumProtocol(
                ExecutionContext(key_bits=bits, rng="k%d" % bits)
            ).run(database, selection).value
            for bits in (256, 512, 1024)
        }
        assert len(values) == 1
