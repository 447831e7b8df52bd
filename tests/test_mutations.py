"""Mutations with teeth: the bench's suite_adm2 config with one term of a
conformal law, of the fill, of a quadratic form's jet or of a curvature
kernel scaled by 1.01 (or its sign flipped), applied by monkeypatch, must
fail the checks that read it.  A check that a 1% error in one of its terms
leaves passing would check nothing of that term.

One term vanishes identically, so scaling it changes nothing and no check
can see it: the commutation rule's part b, the defect of the law itself.
`test_delta_weights.py` holds that identity; here its terms are mutated
instead: V = C df through `hessian_parts`, and the torsion the laws read.
Every part and weight of the delta is live."""

import numpy as np
import pytest

import gauduchon.cli as cli
import gauduchon.conformal as conformal
import gauduchon.connection as connection
import gauduchon.wjet as wjet
from gauduchon.cli import SuiteConfig, run_suite

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}
# The weights of `delta_canonical_predicted`'s formula, numbered in order
# (-2p, 2p(1 - p), -(1 - p), (1 - p)^2, s^2), each mapped to the index of its
# part and weight in `delta_parts` and `delta_weights`.  Term 1 has none: in
# the frames it cancels against Y(V), so every part the check reads is live.
PART_OF_TERM = {0: 0, 2: 1, 3: 2, 4: 3}


def passed(check: str) -> bool:
    """Whether every record of `check` passes on the suite_adm2 config."""
    config = SuiteConfig.from_dict({
        "chart": ADM_SPEC, "sample_count": 40, "checks": [check],
        "params_grid": [[-1.0, 0.0], [3.0, 0.0], [-1.0, 2.0], [0.0, 3.0 ** 0.5]]})
    records = run_suite(config).records
    assert records and {r.name for r in records} == {check}
    return all(r.passed for r in records)


def scaled(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    """a with its k-th entry along `axis` scaled by 1.01."""
    a = np.array(a)
    index = [slice(None)] * a.ndim
    index[axis] = k
    a[tuple(index)] *= 1.01
    return a


def patch_property(monkeypatch, name: str, mutate):
    """Replace the cached property `FactorAt.<name>` by its value mutated."""
    func = getattr(conformal.FactorAt, name).func
    monkeypatch.setattr(conformal.FactorAt, name, property(lambda at: mutate(func(at))))


def test_unmutated_conformal_checks_pass():
    assert passed("conformal_delta") and passed("commutation")


@pytest.mark.parametrize("term", PART_OF_TERM)
def test_a_scaled_delta_part_fails_conformal_delta(monkeypatch, term):
    k = PART_OF_TERM[term]
    patch_property(monkeypatch, "delta_parts", lambda parts: scaled(parts, k, 1))
    assert not passed("conformal_delta")


@pytest.mark.parametrize("term", PART_OF_TERM)
def test_a_scaled_delta_weight_fails_conformal_delta(monkeypatch, term):
    k = PART_OF_TERM[term]
    weights = conformal.delta_weights
    monkeypatch.setattr(conformal, "delta_weights", lambda params: scaled(weights(params), k, -1))
    assert not passed("conformal_delta")


@pytest.mark.parametrize("check", ["conformal_delta", "commutation"])
def test_a_scaled_lichnerowicz_hessian_part_fails(monkeypatch, check):
    """V = C df in the frames, the (1 - t) share of the Hessians, which the
    delta's third part and the commutation part b read."""
    patch_property(monkeypatch, "hessian_parts", lambda UVs: (UVs[0], 1.01 * UVs[1], *UVs[2:]))
    assert not passed(check)


@pytest.mark.parametrize("check", ["conformal_delta", "commutation"])
def test_a_scaled_base_torsion_fails(monkeypatch, check):
    """The base torsion T the conformal laws read, which `FactorAt` takes
    from `_frame_torsion`."""
    torsion = conformal._frame_torsion
    monkeypatch.setattr(conformal, "_frame_torsion", lambda *args: 1.01 * torsion(*args))
    assert not passed(check)


def test_a_scaled_mixed_product_term_fails_conformal_delta(monkeypatch):
    """`WJet2.__mul__`'s mixed term outer(o.d, self.dbar) scaled by 1.01,
    in the Hessian's mixed block and its transpose, so the Hessian stays
    symmetric.  The rescaled records are the scale jet times the base's jets
    under this product, so the delta's direct side reads the mutated term."""
    mul = wjet.WJet2.__mul__

    def mutated(self, o):
        out = mul(self, o)
        if isinstance(o, wjet.WJet2):
            n = out.n
            term = np.zeros(out.hess.shape, complex)
            term[..., :n, n:] = 0.01 * o.d[..., :, None] * self.dbar[..., None, :]
            out = wjet.WJet2(out.value, out.grad, out.hess + (term + term.swapaxes(-1, -2)))
        return out

    monkeypatch.setattr(wjet.WJet2, "__mul__", mutated)
    assert not passed("conformal_delta")


# The fill's mutations and the checks each must fail.
FILL_ROWS = [("ginv", "metric_inverse"), ("ginv", "interpolation"),
             ("E", "frame_unitarity"), ("E", "interpolation")]


def test_unmutated_fill_checks_pass():
    assert all(passed(check) for check in
               ("metric_inverse", "frame_unitarity", "interpolation", "constancy"))


@pytest.mark.parametrize("field,check", FILL_ROWS)
def test_a_scaled_record_field_fails(monkeypatch, field, check):
    """The inverse metric `ginv` or the Cholesky frame `E` scaled by 1.01
    as `_fill` makes its record, after the frame's unitarity check: the
    suite's Chern curvature, torsion and bases are built from the scaled
    `ginv`, and from the frame `_fill` checked."""
    make = connection._MetricData

    def mutated(*parts):
        data = vars(make(*parts))
        return make(**(data | {field: 1.01 * data[field]}))

    monkeypatch.setattr(connection, "_MetricData", mutated)
    assert not passed(check)


def test_a_scaled_lower_mixed_hessian_fails_interpolation(monkeypatch):
    """The record's lower mixed Hessian block hess[:, n:, :n], dbar_a d_b g,
    scaled by 1.01 as `_fill` takes the packed jets.  The Chern side reads
    only the upper block (`ddbarG`); `_christoffel_parts` reads the Hessian
    whole, so the connection's own curvature, which `interpolation`
    compares with the bases, carries the error."""
    fill = connection._fill

    def mutated(labels, Z, G, grad, hess):
        n = G.shape[-1]
        hess = np.array(hess)
        hess[:, n:, :n] *= 1.01
        return fill(labels, Z, G, grad, hess)

    for module in (connection, cli, conformal):
        monkeypatch.setattr(module, "_fill", mutated)
    assert not passed("interpolation")


@pytest.mark.parametrize("check", ["interpolation", "constancy"])
def test_a_flipped_chern_quadratic_term_fails(monkeypatch, check):
    """`_chern_stack` with the sign of its quadratic term flipped:
    -d dbar g - g^-1 dg dbar g, that is twice the framed -d dbar g less the
    true curvature.  The suite's q-line pair and its bases' B[0] read it."""
    chern = connection._chern_stack

    def flipped(b, E):
        return 2 * connection._to_frame(-b.ddbarG, E, E.conj(), E, E.conj()) - chern(b, E)

    for module in (connection, cli):
        monkeypatch.setattr(module, "_chern_stack", flipped)
    assert not passed(check)


# The curvature kernels' mutations: (mutation, check that must fail).  The
# suite's Chern curvature and torsion (`_Suite.chern`) feed `constancy`'s
# q-line pair and the first 10 points' bases, which `interpolation`
# compares with the connection's own curvature.  "H" is the Chern side of
# the torsion's dbar derivative in `_basis_stack`, B[0] = H + B[2] + B[3]
# and B[1] = R^C - H.
KERNEL_ROWS = [("X", "constancy"), ("q", "constancy"), ("torsion", "constancy"),
               ("H", "interpolation")] \
    + [(f"basis[{m}]", "interpolation") for m in range(4)] \
    + [(f"canonical_weights[{k}]", "interpolation") for k in range(4)]


def mutate_kernel(monkeypatch, mutation: str):
    """Apply one KERNEL_ROWS mutation, in every module that binds the name."""
    if mutation == "X":
        pair = cli._qline_pair
        monkeypatch.setattr(cli, "_qline_pair", lambda RC, T: scaled(pair(RC, T), 1, 1))
    elif mutation == "q":
        weights = cli.qline_weights
        monkeypatch.setattr(cli, "qline_weights", lambda params: scaled(weights(params), 1, -1))
    elif mutation == "torsion":
        kernel = connection._frame_torsion
        for module in (connection, cli):
            monkeypatch.setattr(module, "_frame_torsion", lambda *args: 1.01 * kernel(*args))
    elif mutation == "H":
        build = connection._basis_stack

        def mutated(RC, T):
            # H scaled by 1.01: B[0] gains 0.01 H and B[1] loses it.
            H = 0.5 * (RC.swapaxes(-4, -2) + RC.swapaxes(-3, -1))
            B = build(RC, T)
            B[:, 0] += 0.01 * H
            B[:, 1] -= 0.01 * H
            return B
        monkeypatch.setattr(cli, "_basis_stack", mutated)
    elif mutation.startswith("basis"):
        build, m = connection._basis_stack, int(mutation[-2])
        monkeypatch.setattr(cli, "_basis_stack", lambda *args: scaled(build(*args), m, 1))
    else:
        weights, k = cli.canonical_weights, int(mutation[-2])
        monkeypatch.setattr(cli, "canonical_weights", lambda params: scaled(weights(params), k, -1))


@pytest.mark.parametrize("mutation,check", KERNEL_ROWS)
def test_a_scaled_kernel_term_fails(monkeypatch, mutation, check):
    mutate_kernel(monkeypatch, mutation)
    assert not passed(check)


@pytest.mark.parametrize("part", ["grad", "hess"])
def test_a_scaled_quadratic_jet_part_fails_wjet_oracle(monkeypatch, part):
    """`Quadratic._jet`'s gradient H w or its Hessian H scaled by 1.01: the
    chart's xi_A is one quadratic form, so every component's exact jet
    carries the error, and its finite differences, from `_value`, do not."""
    jet = wjet.Quadratic._jet

    def mutated(self, walk):
        out = vars(jet(self, walk))
        return wjet.WJet2(**(out | {part: 1.01 * out[part]}))

    monkeypatch.setattr(wjet.Quadratic, "_jet", mutated)
    assert not passed("wjet_oracle")


def test_unmutated_wjet_oracle_passes():
    assert passed("wjet_oracle")
