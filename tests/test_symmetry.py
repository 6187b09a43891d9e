"""The C4 block route: symmetry_blocks and its three lattice consumers."""
import numpy as np
import pytest

from localizer_lab import (
    GradedOperator,
    GradedSpace,
    assemble_localizer,
    choose_params,
    compressed_index,
    default_localizer,
    operator_norm,
    parse_model,
    positive_projection,
)
from localizer_lab.grading import (
    PhasedPermutation,
    _cell_entries,
    _odd_monomial,
    lipschitz_derivative,
    symmetry_blocks,
)
from localizer_lab.ktheory import signature
from localizer_lab.localizer import _identity_window

PHI = default_localizer()


def _plain(op: GradedOperator) -> GradedOperator:
    """op on a space without a symmetry, so every kernel takes the full route;
    a D built from its entries is built from them again."""
    space = GradedSpace(op.space.n_plus, op.space.n_minus)
    if _odd_monomial(op) is not None:
        return GradedOperator._monomial_built(space, *_odd_monomial(op))
    return GradedOperator(op.matrix, space, parity=op.parity, hermitian=op.hermitian)


def _eigvalsh_shapes(monkeypatch) -> list:
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(m):
        shapes.append(m.shape)
        return eigvalsh(m)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


def _dense(sym: PhasedPermutation) -> np.ndarray:
    n = len(sym.perm)
    s = np.zeros((n, n), dtype=complex)
    s[sym.perm, np.arange(n)] = sym.phase
    return s


@pytest.mark.parametrize("L", [8, 9])
def test_quarter_turn_is_a_symmetry_of_the_lattice_pair(L):
    desc = parse_model(f"qwz:L={L},m=1.0")
    s = _dense(desc.space.symmetry)
    n = desc.space.n
    assert np.abs(np.linalg.matrix_power(s, 4) + np.eye(n)).max() < 1e-14
    assert np.abs(s @ desc.D.matrix - desc.D.matrix @ s).max() < 1e-15
    assert np.abs(s @ desc.H.matrix - desc.H.matrix @ s).max() < 1e-15


@pytest.mark.parametrize("L, sizes", [(8, [32] * 4), (9, [41, 40, 40, 41])])
def test_orbit_basis_splits_each_sector_four_ways(L, sizes):
    # odd L: the centre site is an orbit of one, with one orbital in each
    # of two eigenspaces
    desc = parse_model(f"qwz:L={L},m=3.0")
    split = symmetry_blocks(desc.H, "+", "+")
    assert [b.shape for b in split.blocks] == [(k, k) for k in sizes]
    assert 0.0 <= split.weyl < 1e-13


def test_symmetry_is_left_out_of_equality_and_its_power_is_checked():
    desc = parse_model("qwz:L=8,m=1.0")
    plain = GradedSpace(desc.space.n_plus, desc.space.n_minus)
    assert desc.space == plain and hash(desc.space) == hash(plain)
    with pytest.raises(ValueError, match="S\\^4"):
        bad = PhasedPermutation(desc.space.symmetry.perm, desc.space.symmetry.phase,
                                4, 1.0)
        bad.orbits


@pytest.mark.parametrize("address", ["qwz:L=8,m=1.0", "qwz:L=8,m=3.0",
                                     "qwz:L=9,m=1.0", "qwz:L=9,m=3.0"])
def test_block_route_matches_the_full_route(address, monkeypatch):
    desc = parse_model(address)
    H, D = desc.H, desc.D
    h_full, d_full = _plain(H), _plain(D)
    n = desc.space.n

    params = choose_params(h_full, d_full, PHI)
    shapes = _eigvalsh_shapes(monkeypatch)
    blocked = assemble_localizer(H, D, PHI, params)
    assert blocked.phi_identity and max(shape[0] for shape in shapes) < n
    full = assemble_localizer(h_full, d_full, PHI, params)
    assert full.eig_error == 0.0 and 0.0 <= blocked.eig_error < 1e-12
    tol = 1e-12 * float(np.abs(full.eigenvalues).max())
    assert np.abs(blocked.eigenvalues - full.eigenvalues).max() <= tol
    assert abs(blocked.min_abs_eigenvalue - full.min_abs_eigenvalue) <= tol
    assert signature(blocked.eigenvalues).signature == signature(full.eigenvalues).signature
    # the Weyl bound is taken off, so min_abs_eigenvalue stays a lower bound
    assert blocked.min_abs_eigenvalue == \
        np.abs(blocked.eigenvalues).min() - blocked.eig_error
    assert np.array_equal(blocked.L.matrix, full.L.matrix)

    comm, comm_full = lipschitz_derivative(D, H), lipschitz_derivative(d_full, h_full)
    split = symmetry_blocks(comm, "-", "+")
    sv = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in split.blocks])
    sv_full = np.linalg.svd(comm_full.odd_block, compute_uv=False)
    sv = np.sort(np.concatenate([sv, np.zeros(len(sv_full) - len(sv))]))
    assert np.abs(sv - np.sort(sv_full)).max() <= 1e-12 * sv_full.max()
    # the block maximum plus the Weyl bound is an upper bound
    assert operator_norm(comm) == max(b.max() for b in
                                      (np.linalg.svd(b, compute_uv=False)
                                       for b in split.blocks)) + split.weyl
    assert operator_norm(comm) == pytest.approx(sv_full.max(), rel=1e-12)

    got = compressed_index(positive_projection(H), D)
    want = compressed_index(positive_projection(h_full), d_full)
    assert got.value == want.value and got.reliable == want.reliable
    for key in ("rank", "rank_Q_plus", "rank_Q_minus", "shape"):
        assert got.diagnostics[key] == want.diagnostics[key]
    assert got.rank_tolerance == pytest.approx(want.rank_tolerance, rel=1e-10)
    assert got.diagnostics["cut_ratio"] == pytest.approx(want.diagnostics["cut_ratio"],
                                                         rel=1e-6, abs=1e-12)


def test_broken_symmetry_takes_the_full_route_bit_for_bit(monkeypatch):
    desc = parse_model("qwz:L=8,m=3.0")
    # a random on-site potential, drawn for each sector: [D, H] breaks S too
    rng = np.random.default_rng(17)
    site = np.repeat(rng.uniform(-0.2, 0.2, size=desc.space.n // 2), 2)
    hm = desc.H.matrix + np.diag(site)
    H = GradedOperator(hm, desc.space, parity="even", hermitian=True)
    D = desc.D
    h_full, d_full = _plain(H), _plain(D)
    n = desc.space.n
    h_plus = symmetry_blocks(H, "+", "+")
    assert len(h_plus.blocks) == 1 and h_plus.weyl == 0.0
    assert np.array_equal(h_plus.blocks[0], H.block("+", "+"))
    assert len(symmetry_blocks(D, "-", "+").blocks) == 4  # D alone still passes

    shapes = _eigvalsh_shapes(monkeypatch)
    params = choose_params(H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, params)
    assert (n, n) in shapes and bundle.eig_error == 0.0
    comm = symmetry_blocks(lipschitz_derivative(D, H), "-", "+")
    assert len(comm.blocks) == 1 and comm.weyl == 0.0
    assert params == choose_params(h_full, d_full, PHI)
    assert np.array_equal(bundle.eigenvalues,
                          assemble_localizer(h_full, d_full, PHI, params).eigenvalues)

    got = compressed_index(positive_projection(H), D)
    want = compressed_index(positive_projection(h_full), d_full)
    assert (got.value, got.rank_tolerance, got.diagnostics) == \
        (want.value, want.rank_tolerance, want.diagnostics)


def test_without_a_symmetry_every_kernel_takes_one_whole_block(monkeypatch):
    # a random H on the ladder D: no symmetry, and the identity-window branch
    desc = parse_model("random:n=40,strength=0.02,seed=1")
    H, D = desc.H, desc.D
    assert desc.space.symmetry is None
    comm = lipschitz_derivative(D, H)
    for op, row, col in ((H, "+", "+"), (D, "-", "+"), (comm, "-", "+"),
                         (comm, "+", "-")):
        split = symmetry_blocks(op, row, col)
        assert len(split.blocks) == 1 and split.weyl == 0.0
        assert np.array_equal(split.blocks[0], op.block(row, col))
    assert symmetry_blocks(comm).blocks[0] is comm.matrix
    assert operator_norm(comm) == max(
        np.linalg.svd(comm.block(row, col), compute_uv=False)[0]
        for row, col in (("-", "+"), ("+", "-")))
    nonhermitian = GradedOperator(comm.matrix + H.matrix, desc.space)
    assert operator_norm(nonhermitian) == \
        np.linalg.svd(nonhermitian.matrix, compute_uv=False)[0]

    params = choose_params(H, D, PHI)
    shapes = _eigvalsh_shapes(monkeypatch)
    bundle = assemble_localizer(H, D, PHI, params)
    assert bundle.phi_identity and bundle.eig_error == 0.0
    assert shapes == [(desc.space.n, desc.space.n)]
    assert np.array_equal(bundle.eigenvalues, np.sort(np.linalg.eigvalsh(bundle.L.matrix)))


def test_compressed_index_takes_whole_blocks_when_only_d_breaks_the_symmetry():
    desc = parse_model("qwz:L=8,m=3.0")
    Q = positive_projection(desc.H)
    rng = np.random.default_rng(23)
    noise = rng.uniform(-0.2, 0.2, size=desc.D.odd_block.shape)
    D = GradedOperator.odd_from_block(desc.space, desc.D.odd_block + noise)
    assert [len(symmetry_blocks(Q, s, s).blocks) for s in "+-"] == [4, 4]
    assert len(symmetry_blocks(D, "-", "+").blocks) == 1

    got = compressed_index(Q, D)
    want = compressed_index(_plain(Q), _plain(D))
    assert (got.value, got.rank_tolerance, got.diagnostics) == \
        (want.value, want.rank_tolerance, want.diagnostics)


def _whole_gather_split(m: np.ndarray, sym: PhasedPermutation) -> tuple[list, float]:
    """(blocks, weyl) of the n x n matrix m by one pass of whole gathers,
    each spanning both sectors: the reference the sector-block route is
    pinned to."""
    orbits = sym.orbits
    idx, phi, size, ok = orbits.part(0, len(m))
    order = orbits.order
    r_phi = phi * np.sqrt(size)[:, None] / order
    c_phi = phi * np.sqrt(size)[:, None]
    acc, delta2 = [], 0.0
    for d in range(order):
        xs = []
        for l in range(order):
            j = (l + d) % order
            lead = r_phi[:, j] if l + d < order else orbits.power * r_phi[:, j]
            x = m[np.ix_(idx[:, j], idx[:, l])]
            x *= np.outer(lead.conj(), c_phi[:, l])
            xs.append(x)
        delta2 += sum(np.linalg.norm(x - y) ** 2 for x, y in zip(xs[1:] + xs[:1], xs))
        acc.append(sum(xs[1:], xs[0]))
    blocks = [(sum(mu**d * a for d, a in enumerate(acc)) / order)[np.ix_(ok[:, i], ok[:, i])]
              for i, mu in enumerate(orbits.mu)]
    return blocks, (order - 1) / 2.0 * float(np.sqrt(delta2))


@pytest.mark.parametrize("L, m", [(8, 3.0), (9, 1.0), (11, -1.0)])
def test_sector_block_route_is_the_whole_gather_split_bit_for_bit(L, m):
    # L is split one sector block at a time, its kappa D blocks from their
    # entries; odd L masks the empty orbits of each eigenspace per block
    desc = parse_model(f"qwz:L={L},m={m}")
    params = choose_params(desc.H, desc.D, PHI)
    kept = _identity_window(desc.H, desc.D, params.kappa)
    assert all(_cell_entries(kept, row, col) is not None
               for row, col in (("-", "+"), ("+", "-")))
    split = symmetry_blocks(kept)
    want, weyl = _whole_gather_split(kept.formed(), desc.space.symmetry)
    assert len(split.blocks) == 4
    assert [b.tobytes() for b in split.blocks] == [b.tobytes() for b in want]
    # the same squares, summed in another order
    assert split.weyl == pytest.approx(weyl, rel=1e-10)


@pytest.mark.parametrize("L", [8, 9])
def test_entries_route_is_the_dense_gather_route_bit_for_bit(L):
    # a monomial odd block, hermitian or not, splits from its entries as
    # its dense twin splits from gathers, and so does its adjoint block
    desc = parse_model(f"qwz:L={L},m=1.0")
    space, D = desc.space, desc.D
    rows, cols, z = _odd_monomial(D)
    anti = GradedOperator._monomial_built(space, rows, cols, 1j * z, adjoint=-1)
    for op in (D, anti):
        dense = GradedOperator._odd_built(space, op.block("-", "+"), adjoint=op._adjoint,
                                          hermitian=op.hermitian)
        for row, col in (("-", "+"), ("+", "-")):
            assert _cell_entries(op, row, col) is not None
            assert _cell_entries(dense, row, col) is None
            got, want = symmetry_blocks(op, row, col), symmetry_blocks(dense, row, col)
            assert len(got.blocks) == 4 and repr(got.weyl) == repr(want.weyl)
            assert [x.tobytes() for x in got.blocks] == [y.tobytes() for y in want.blocks]
