"""Seeded replay: the engine's outputs must stay bit-identical.

A small replay runs every group operation on both representations at
genus 2, on the int64 path (p = 1009) and the object path (p = 2^31 - 1),
and hashes everything it sees: the precomputed spaces and generating sets,
the bridged operands, every operation's result, the ``equal_class``
verdicts, the ``validate_rep`` reports and the Las Vegas ``RetryStats``.
Arrays are hashed through ``repr(ndarray.tolist())``, which is the same on
every platform and for int64 and object arrays alike.

``RECORDED`` holds the digests of the current algorithm.  A change that is
meant to keep outputs identical must leave them as they are; a change that
alters canonical bases or retry counts on purpose must say so and record
new digests.
"""

import hashlib

import pytest

import jacarith as ja

RECORDED = {
    1009: "71082f9dbadaf28b08b8e41fa0713dfec3e12822c582ab178bb303b6787b0617",
    2**31 - 1: "20c7da02bef666328bfdff041fbf6624f02d11a53d2287e320e89d7997601a25",
}


def _replay(p: int) -> str:
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            h.update(repr(item.tolist() if hasattr(item, "tolist") else item).encode())

    def put_point(x):
        put(x.tag, x.divisor.degree, x.space.basis)

    rng = ja.RandomStream(f"replay-{p}")
    bundle = ja.gen_hyperelliptic(2, p, rng=rng.split("curve"))
    ja.gen_rep_b0(bundle, rng.split("points"))
    curve = bundle.curve
    for tag in ("a", "b0"):
        model = bundle.large_model(rng.split(f"model-{tag}"), tag)
        put(tag, ja.validate_rep(model.rep).checks)
        put(model.W_D0.space.basis, model.W_2D0.space.basis, model.s0,
            *model.defl_D0.sections, *model.defl_2D0.sections, *model.defl_v.sections)
        for i in range(4):
            r = rng.split(f"{tag}-round-{i}")
            m1 = ja.random_mumford(curve, r.split("m1"))
            m2 = ja.random_mumford(curve, r.split("m2"))
            xs, ys = ja.mumford_to_point(model, m1), ja.mumford_to_point(model, m2)
            xl = ja.mumford_to_point(model, m1, ja.LARGE)
            yl = ja.mumford_to_point(model, m2, ja.LARGE)
            total = ja.mumford_to_point(model, ja.cantor_add(curve, m1, m2))
            for x in (xs, ys, xl, yl, total):
                put_point(x)
            s = ja.add(model, xs, ys, r.split("add"))
            for x in (ja.addflip_small(model, xs, ys, r.split("afs")),
                      ja.addflip_large(model, xl, yl, r.split("afl")),
                      s,
                      ja.negate(model, xs, r.split("neg")),
                      ja.scalar_mul(model, 3, xs, r.split("smul"))):
                put_point(x)
            put(ja.equal_class(model, s, total), ja.equal_class(model, xs, ys))
        stats = model.stats
        put(stats.calls, stats.attempts, sorted(stats.histogram.items()))
    put(bundle.to_b0_space(bundle.precomp("a", with_cubic=False)[1].w_d0).basis)
    return h.hexdigest()


@pytest.mark.parametrize("p", sorted(RECORDED))
def test_seeded_replay_is_bit_identical(p):
    assert _replay(p) == RECORDED[p]
