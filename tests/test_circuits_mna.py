"""Tests for MNA stamping: hand-checked matrices and structure properties."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Netlist, assemble, with_random_variations
from repro.circuits.elements import is_ground
from repro.circuits.mna import MNAError, MNAIndex, assemble_perturbation


def rc_divider():
    net = Netlist("rc")
    net.resistor("R1", "in", "out", 2.0)
    net.capacitor("C1", "out", "0", 3.0)
    net.resistor("R2", "in", "0", 4.0)
    net.current_port("P", "in")
    return net


class TestStamps:
    def test_conductance_stamp_values(self):
        system = assemble(rc_divider())
        g = system.G.toarray()
        # Node order: in=0, out=1.
        np.testing.assert_allclose(g, [[0.5 + 0.25, -0.5], [-0.5, 0.5]])

    def test_capacitance_stamp_values(self):
        system = assemble(rc_divider())
        c = system.C.toarray()
        np.testing.assert_allclose(c, [[0.0, 0.0], [0.0, 3.0]])

    def test_port_stamp(self):
        system = assemble(rc_divider())
        np.testing.assert_allclose(system.B.toarray(), [[1.0], [0.0]])
        np.testing.assert_allclose(system.L.toarray(), [[1.0], [0.0]])

    def test_grounded_resistor_stamps_diagonal_only(self):
        net = Netlist()
        net.resistor("R1", "a", "0", 5.0)
        net.current_port("P", "a")
        g = assemble(net).G.toarray()
        np.testing.assert_allclose(g, [[0.2]])

    def test_inductor_structure(self):
        net = Netlist()
        net.resistor("R1", "a", "0", 1.0)
        net.inductor("L1", "a", "b", 7.0)
        net.capacitor("C1", "b", "0", 1.0)
        net.current_port("P", "a")
        system = assemble(net)
        g = system.G.toarray()
        c = system.C.toarray()
        # States: v(a)=0, v(b)=1, i(L1)=2.
        np.testing.assert_allclose(c[2, 2], 7.0)
        # Incidence columns are exactly skew: G + G^T symmetric part PSD.
        np.testing.assert_allclose(g[0, 2], 1.0)
        np.testing.assert_allclose(g[2, 0], -1.0)
        np.testing.assert_allclose(g[1, 2], -1.0)
        np.testing.assert_allclose(g[2, 1], 1.0)

    def test_mutual_inductance_stamp(self):
        net = Netlist()
        net.resistor("R", "a", "0", 1.0)
        net.inductor("L1", "a", "b", 4.0)
        net.inductor("L2", "a", "c", 9.0)
        net.capacitor("C1", "b", "0", 1.0)
        net.capacitor("C2", "c", "0", 1.0)
        net.mutual("K1", "L1", "L2", 0.5)
        net.current_port("P", "a")
        c = assemble(net).C.toarray()
        # M = k * sqrt(L1 L2) = 0.5 * 6 = 3 in both off-diagonal slots.
        li = [3, 4]  # inductor current indices follow the 3 nodes
        np.testing.assert_allclose(c[li[0], li[1]], 3.0)
        np.testing.assert_allclose(c[li[1], li[0]], 3.0)

    def test_indefinite_mutual_rejected(self):
        net = Netlist()
        net.resistor("R", "a", "0", 1.0)
        net.inductor("L1", "a", "b", 1.0)
        net.inductor("L2", "a", "c", 1.0)
        net.inductor("L3", "a", "d", 1.0)
        # Pairwise 0.99 coupling among three equal inductors is indefinite
        # (eigenvalues 1 + 2k, 1 - k: fine) -- use negative-cycle instead.
        net.mutual("K1", "L1", "L2", 0.9)
        net.mutual("K2", "L2", "L3", 0.9)
        net.mutual("K3", "L1", "L3", -0.9)
        net.current_port("P", "a")
        with pytest.raises(MNAError, match="indefinite"):
            assemble(net)

    def test_psd_check_on_large_coupled_network(self):
        """Smoke test: the branch-block PSD check must scale to big buses.

        The historical implementation fancy-indexed the full CSC
        capacitance matrix to read the (contiguous) inductor block; on
        multi-thousand-state networks that built index structures over
        the whole matrix.  Assembly of an 800-segment coupled bus (4802
        states, 1600 mutual stamps) must succeed and stay PSD-checked.
        """
        from repro.circuits.generators import coupled_rlc_bus

        net = coupled_rlc_bus(num_segments=800)
        system = assemble(net)
        assert system.order == 4802
        # The check ran (mutuals present) and accepted the PSD block; a
        # hostile coupling on the same topology must still be rejected.
        bad = coupled_rlc_bus(num_segments=10, mutual_coupling=0.999)
        bad.mutual("Kbad", "L0_0", "L1_1", -0.999)
        with pytest.raises(MNAError, match="indefinite"):
            assemble(bad)

    def test_voltage_source_structure(self):
        net = Netlist()
        net.resistor("R1", "in", "out", 1.0)
        net.capacitor("C1", "out", "0", 1.0)
        net.voltage_source("V1", "in", "0")
        net.observe("y", "out")
        system = assemble(net)
        # u is the source voltage; DC: out follows in exactly.
        gain = system.dc_gain()
        np.testing.assert_allclose(gain, [[1.0]], atol=1e-12)


class TestValidation:
    def test_no_inputs_rejected(self):
        net = Netlist()
        net.resistor("R1", "a", "0", 1.0)
        with pytest.raises(MNAError, match="no inputs"):
            assemble(net)

    def test_empty_netlist_rejected(self):
        with pytest.raises(MNAError):
            assemble(Netlist())

    def test_state_names(self):
        system = assemble(rc_divider())
        assert system.state_names == ["v(in)", "v(out)"]

    def test_input_output_names(self):
        net = rc_divider()
        net.observe("far", "out")
        system = assemble(net)
        assert system.input_names == ["P"]
        assert system.output_names == ["P", "far"]


class TestPerturbationStamps:
    def test_scaled_resistor_stamp(self):
        net = rc_divider()
        dg, dc = assemble_perturbation(net, {"R1": 0.5})
        np.testing.assert_allclose(dg.toarray(), [[0.25, -0.25], [-0.25, 0.25]])
        assert dc.nnz == 0

    def test_scaled_capacitor_stamp(self):
        net = rc_divider()
        dg, dc = assemble_perturbation(net, {"C1": -1.0})
        assert dg.nnz == 0
        np.testing.assert_allclose(dc.toarray(), [[0.0, 0.0], [0.0, -3.0]])

    def test_scaled_inductor_stamp(self):
        net = Netlist()
        net.resistor("R1", "a", "0", 1.0)
        net.inductor("L1", "a", "b", 7.0)
        net.capacitor("C1", "b", "0", 1.0)
        net.current_port("P", "a")
        _, dc = assemble_perturbation(net, {"L1": 2.0})
        np.testing.assert_allclose(dc.toarray()[2, 2], 14.0)

    def test_first_order_consistency(self):
        # G(p) = G0 + p*dG must equal assembling the perturbed netlist
        # to first order: conductance perturbation is exact (linear).
        net = rc_divider()
        dg, _ = assemble_perturbation(net, {"R1": 1.0, "R2": 1.0})
        perturbed = Netlist("p")
        eps = 0.01
        # scale=1 means conductance grows by factor (1+p): R shrinks.
        perturbed.resistor("R1", "in", "out", 2.0 / (1 + eps))
        perturbed.capacitor("C1", "out", "0", 3.0)
        perturbed.resistor("R2", "in", "0", 4.0 / (1 + eps))
        perturbed.current_port("P", "in")
        g_pert = assemble(perturbed).G.toarray()
        g_model = assemble(net).G.toarray() + eps * dg.toarray()
        np.testing.assert_allclose(g_model, g_pert, rtol=1e-12)

    def test_unknown_element_rejected(self):
        with pytest.raises(MNAError, match="unknown"):
            assemble_perturbation(rc_divider(), {"R99": 1.0})

    def test_zero_scales_give_empty_matrices(self):
        dg, dc = assemble_perturbation(rc_divider(), {})
        assert dg.nnz == 0 and dc.nnz == 0


# -- the array stamper against the per-element stamper it replaced ---------
#
# The oracle below is the one-element-at-a-time stamper, kept verbatim:
# it appends Python tuples in netlist order, so the CSR conversion sums
# duplicates in that order.  The array stamper must reproduce its CSR
# arrays byte for byte -- study fingerprints, stores and result indexes
# all hash them.


def _oracle_nodes(netlist):
    """``Netlist.nodes()`` as the element-by-element scan it replaced."""
    seen = {}
    for element in (*netlist.resistors, *netlist.capacitors, *netlist.inductors):
        for node in (element.node_a, element.node_b):
            if not is_ground(node) and node not in seen:
                seen[node] = None
    for port in netlist.current_ports:
        seen.setdefault(port.node, None)
    for source in netlist.voltage_sources:
        for node in (source.node_plus, source.node_minus):
            if not is_ground(node) and node not in seen:
                seen[node] = None
    for obs in netlist.observations:
        seen.setdefault(obs.node, None)
    return list(seen)


def _oracle_conductance(triples, index, node_a, node_b, value):
    a = None if is_ground(node_a) else index.node(node_a)
    b = None if is_ground(node_b) else index.node(node_b)
    if a is not None:
        triples.append((a, a, value))
    if b is not None:
        triples.append((b, b, value))
    if a is not None and b is not None:
        triples.append((a, b, -value))
        triples.append((b, a, -value))


def _oracle_csr(triples, shape):
    if not triples:
        return sp.csr_matrix(shape)
    rows, cols, vals = zip(*triples)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=shape))


def _oracle_assemble(netlist):
    """``(G, C, B, L)`` stamped one element at a time."""
    index = MNAIndex(netlist)
    n = index.n_states
    g_triples, c_triples = [], []
    for res in netlist.resistors:
        _oracle_conductance(g_triples, index, res.node_a, res.node_b, 1.0 / res.value)
    for cap in netlist.capacitors:
        _oracle_conductance(c_triples, index, cap.node_a, cap.node_b, cap.value)
    for ind in netlist.inductors:
        k = index.inductor_index[ind.name]
        a = None if is_ground(ind.node_a) else index.node(ind.node_a)
        b = None if is_ground(ind.node_b) else index.node(ind.node_b)
        if a is not None:
            g_triples.append((a, k, 1.0))
            g_triples.append((k, a, -1.0))
        if b is not None:
            g_triples.append((b, k, -1.0))
            g_triples.append((k, b, 1.0))
        c_triples.append((k, k, ind.value))
    for mut in netlist.mutuals:
        la = netlist.find_inductor(mut.inductor_a)
        lb = netlist.find_inductor(mut.inductor_b)
        m_value = mut.coupling * np.sqrt(la.value * lb.value)
        ka = index.inductor_index[mut.inductor_a]
        kb = index.inductor_index[mut.inductor_b]
        c_triples.append((ka, kb, m_value))
        c_triples.append((kb, ka, m_value))
    b_triples, l_triples = [], []
    for j, port in enumerate(netlist.current_ports):
        node = index.node(port.node)
        b_triples.append((node, j, 1.0))
        l_triples.append((node, j, 1.0))
    n_ports = len(netlist.current_ports)
    for j, src in enumerate(netlist.voltage_sources):
        k = index.source_index[src.name]
        a = None if is_ground(src.node_plus) else index.node(src.node_plus)
        b = None if is_ground(src.node_minus) else index.node(src.node_minus)
        if a is not None:
            g_triples.append((a, k, 1.0))
            g_triples.append((k, a, -1.0))
        if b is not None:
            g_triples.append((b, k, -1.0))
            g_triples.append((k, b, 1.0))
        b_triples.append((k, n_ports + j, -1.0))
    for j, obs in enumerate(netlist.observations):
        l_triples.append((index.node(obs.node), n_ports + j, 1.0))
    return (
        _oracle_csr(g_triples, (n, n)),
        _oracle_csr(c_triples, (n, n)),
        _oracle_csr(b_triples, (n, len(index.input_names))),
        _oracle_csr(l_triples, (n, len(index.output_names))),
    )


def _oracle_perturbation(netlist, scales):
    """``(dG, dC)`` stamped one element at a time."""
    index = MNAIndex(netlist)
    n = index.n_states
    g_triples, c_triples = [], []
    for res in netlist.resistors:
        scale = scales.get(res.name)
        if scale:
            _oracle_conductance(g_triples, index, res.node_a, res.node_b, scale / res.value)
    for cap in netlist.capacitors:
        scale = scales.get(cap.name)
        if scale:
            _oracle_conductance(c_triples, index, cap.node_a, cap.node_b, scale * cap.value)
    for ind in netlist.inductors:
        scale = scales.get(ind.name)
        if scale:
            k = index.inductor_index[ind.name]
            c_triples.append((k, k, scale * ind.value))
    return _oracle_csr(g_triples, (n, n)), _oracle_csr(c_triples, (n, n))


def _oracle_variations(netlist, num_parameters, seed, relative_spread, targets):
    """``with_random_variations`` with one scalar draw per element."""
    pools = {
        "resistors": [r.name for r in netlist.resistors],
        "capacitors": [c.name for c in netlist.capacitors],
        "inductors": [l.name for l in netlist.inductors],
    }
    pools["all"] = pools["resistors"] + pools["capacitors"] + pools["inductors"]
    resistor_names = set(pools["resistors"])
    rng = np.random.default_rng(seed)
    pairs = []
    for target in targets:
        scales = {}
        for name in pools[target]:
            alpha = float(rng.uniform(0.0, relative_spread))
            scales[name] = -alpha if name in resistor_names else alpha
        pairs.append(_oracle_perturbation(netlist, scales))
    return pairs, rng.uniform()


def _assert_same_bytes(actual, expected, label):
    assert actual.shape == expected.shape, label
    for part in ("data", "indices", "indptr"):
        got, want = getattr(actual, part), getattr(expected, part)
        assert got.dtype == want.dtype, f"{label}.{part}"
        assert got.tobytes() == want.tobytes(), f"{label}.{part}"


NODES = ["0", "n0", "n1", "n2", "n3", "n4"]
VALUES = st.floats(min_value=1e-15, max_value=1e4, allow_nan=False, allow_infinity=False)
# Inductances within two decades: with |k| <= 0.3 the branch block is
# PD, and a narrow range keeps eigvalsh's rounding from reading it as
# indefinite (the assembly check) when values span 19 decades.
INDUCTANCES = st.floats(min_value=1e-10, max_value=1e-8)
SCALES = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([0.0, -0.0, float("nan"), 1, True, None]),
)


@st.composite
def _terminals(draw):
    a = draw(st.sampled_from(NODES))
    return a, draw(st.sampled_from([node for node in NODES if node != a]))


@st.composite
def random_netlists(draw):
    """Small R/C/L nets: grounded and floating terminals, parallel
    elements (duplicate stamps), mutuals, a voltage source, ports."""
    net = Netlist("prop")
    for kind, prefix, values in (
        (net.resistor, "R", VALUES), (net.capacitor, "C", VALUES),
        (net.inductor, "L", INDUCTANCES),
    ):
        for j in range(draw(st.integers(0, 5))):
            kind(f"{prefix}{j}", *draw(_terminals()), draw(values))
    if len(net.inductors) >= 2:
        names = [ind.name for ind in net.inductors]
        # |k| <= 0.3 on at most two couplings keeps the branch block PD.
        for j in range(draw(st.integers(0, 2))):
            pair = draw(st.permutations(names))[:2]
            net.mutual(f"K{j}", *pair, draw(st.floats(-0.3, 0.3)))
    if draw(st.booleans()):
        net.voltage_source("V1", *draw(_terminals()))
    if draw(st.booleans()) or not net.voltage_sources:
        net.current_port("P", draw(st.sampled_from(NODES[1:])))
    if draw(st.booleans()):
        net.observe("y", draw(st.sampled_from(NODES[1:])))
    return net


PROPERTY = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)


class TestArrayStamping:
    @PROPERTY
    @given(random_netlists(), st.data())
    def test_matches_per_element_stamper_bytewise(self, net, data):
        assert net.nodes() == _oracle_nodes(net)  # the state order
        system = assemble(net)
        for label, actual, expected in zip(
            "GCBL", (system.G, system.C, system.B, system.L), _oracle_assemble(net)
        ):
            _assert_same_bytes(actual, expected, label)
        names = [e.name for e in (*net.resistors, *net.capacitors, *net.inductors)]
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True)) if names else []
        scales = {name: data.draw(SCALES) for name in chosen}
        dg, dc = assemble_perturbation(net, scales)
        want_dg, want_dc = _oracle_perturbation(net, scales)
        _assert_same_bytes(dg, want_dg, "dG")
        _assert_same_bytes(dc, want_dc, "dC")

    @PROPERTY
    @given(
        random_netlists(),
        st.lists(
            st.sampled_from(["all", "resistors", "capacitors", "inductors"]),
            min_size=1, max_size=4,
        ),
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([1.0, 0.5, 0.3, 2.0]),
    )
    def test_variations_match_scalar_draws_bytewise(self, net, targets, seed, spread):
        parametric = with_random_variations(
            net, len(targets), seed=seed, relative_spread=spread, targets=targets
        )
        pairs, _ = _oracle_variations(net, len(targets), seed, spread, targets)
        for i, (want_dg, want_dc) in enumerate(pairs):
            _assert_same_bytes(parametric.dG[i], want_dg, f"dG{i}")
            _assert_same_bytes(parametric.dC[i], want_dc, f"dC{i}")

    @pytest.mark.parametrize("spread", [1.0, 0.5, 0.3, 2.0])
    @pytest.mark.parametrize("seed", range(12))
    def test_draw_vector_is_the_scalar_sequence(self, seed, spread):
        """One ``uniform(size=n)`` draws what ``n`` scalar draws do, and
        leaves the generator where they leave it."""
        vector_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        for size in (0, 1, 7, 250):
            vector = vector_rng.uniform(0.0, spread, size=size)
            scalars = [float(scalar_rng.uniform(0.0, spread)) for _ in range(size)]
            assert vector.tobytes() == np.array(scalars).tobytes()
        assert vector_rng.uniform() == scalar_rng.uniform()
