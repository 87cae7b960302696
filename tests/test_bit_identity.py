"""Bit-identity guards of the column-form scan path.

The sampler draws its box points with ``rng.random`` and scales them
column by column, and every row norm and row dot adds its terms column
by column (``domains._norm``, ``domains._dot``).  These tests pin that
this changes no bit:

* ``sample_interior`` returns the points, and leaves the generator in
  the state, of a rejection loop built on ``rng.uniform(lo, hi, size)``;
* the row helpers equal ``np.linalg.norm(axis=1)`` bit for bit and
  ``np.sum(a * b, axis=1)`` in value (the sign of a zero sum aside)
  below 8 coordinates;
* seed-3 scans of 1e5 triples print the report JSON, and keep the slack
  array, that the row-by-row code gave.  The slacks pass through numpy's
  log1p, whose last bits depend on the SIMD kernels numpy dispatches, so
  they are pinned once per dispatch: with AVX512 (``X86_V4``) and
  without it (AVX2, ``X86_V3``).

``test_guards_without_avx512`` runs this module again in a subprocess
with numpy's AVX512 kernels disabled, the dispatch a CI runner may have.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypermetric.domains import (
    GenericDomain,
    HalfSpace,
    _dot,
    _norm,
    parse_domain,
    sample_interior,
)
from hypermetric.metrics import MetricKind, MetricParams
from hypermetric.verify import triangle_scan

from test_domains import annulus_domain

DOMAINS = ["ball:2", "ball:3", "halfspace:2", "punctured:2", "interval:0:1"]

#: numpy's switch for its AVX512 kernels, leaving the AVX2 ones
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _dispatch():
    """The kernels numpy dispatches: "X86_V4" (AVX512), "X86_V3" (AVX2)
    or None."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    return next((f for f in ("X86_V4", "X86_V3") if features.get(f)), None)


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------


def reference_sample(domain, count, rng, min_clearance):
    """The rejection loop on ``rng.uniform``, and its number of batches."""
    lo, hi = domain.sample_box()
    out = np.empty((count, domain.dimension))
    have = batches = 0
    while have < count:
        batch = max(1024, 2 * (count - have))
        cand = rng.uniform(lo, hi, size=(batch, domain.dimension))
        take = cand[domain.clearance_many(cand) >= min_clearance][: count - have]
        out[have : have + take.shape[0]] = take
        have += take.shape[0]
        batches += 1
    return out, batches


SAMPLED = [parse_domain(s) for s in DOMAINS] + [annulus_domain()]

#: the domains that keep under half their box at clearance 0.3, so that a
#: batch of twice the points still missing falls short
UNDER_HALF = {"ball:2", "ball:3", "interval:0:1", "generic:2"}


@pytest.mark.parametrize("min_clearance", [1e-6, 0.3])
@pytest.mark.parametrize("domain", SAMPLED, ids=lambda d: d.spec_string())
def test_sample_interior_is_the_uniform_rejection_loop(domain, min_clearance):
    batches = []
    for count in (1, 700, 3000):
        rng, ref_rng = np.random.default_rng([5, count]), np.random.default_rng([5, count])
        points = sample_interior(domain, count, rng, min_clearance)
        expected, used = reference_sample(domain, count, ref_rng, min_clearance)
        assert points.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        batches.append(used)
    if min_clearance == 0.3 and domain.spec_string() in UNDER_HALF:
        assert max(batches) >= 2


@pytest.mark.parametrize("dimension", [2, 3])
def test_halfspace_boundary_sample_is_uniform_in_the_box(dimension):
    domain = HalfSpace(dimension)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    points = domain.boundary_sample(500, rng, 1e-6, 5e-2)
    delta = 10.0 ** ref_rng.uniform(np.log10(1e-6), np.log10(5e-2), size=500)
    expected = ref_rng.uniform(*domain.sample_box(), size=(500, dimension))
    expected[:, -1] = delta
    assert points.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_box_wider_than_the_doubles_fails_as_uniform_does():
    box = ((-1e308,), (1e308,))
    wide = GenericDomain(1, lambda xs: np.ones(len(xs)), lambda xs: np.ones(len(xs), bool), box)
    with pytest.raises(OverflowError) as expected, np.errstate(over="ignore"):
        np.random.default_rng(0).uniform(*map(np.array, box), size=(4, 1))
    with pytest.raises(OverflowError, match=f"^{expected.value}$"):
        sample_interior(wide, 4, 0)


# ---------------------------------------------------------------------------
# the row helpers
# ---------------------------------------------------------------------------

#: entries whose squares, and their sums, are normal doubles
normal_entries = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


@st.composite
def row_blocks(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 40))
    return [draw(hnp.arrays(float, (m, n), elements=normal_entries)) for _ in range(2)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(row_blocks())
def test_row_helpers_are_numpy_bit_for_bit(blocks):
    a, b = blocks
    assume(np.all(np.any(a != 0.0, axis=1)))
    assert _norm(a.T).tobytes() == np.linalg.norm(a, axis=1).tobytes()
    # equal doubles have equal bits, but for the sign of a zero
    assert np.array_equal(_dot(a.T, b.T), np.sum(a * b, axis=1))


# ---------------------------------------------------------------------------
# pinned scans
# ---------------------------------------------------------------------------

#: (domain, metric, SHA-256 of the report JSON, of the slacks with the
#: AVX512 kernels, of the slacks with the AVX2 ones), captured with the
#: row-by-row sampler and norms
SCAN_SHA256 = [
    ("ball:2", "h", "6fada20c3f0d63821ddbb84712b06a1918ccf3f6090b20f120846095f7272fd4",
     "fa07cb0d35afbab44536dc48250f1fc7f5bd7af2baf5662ce8bac3d6e9d89a37",
     "00b2de81688868c920b653d45ecc752cb7d18444db6e327e8d76415e64b3e98e"),
    ("ball:2", "j", "c490f7e11793b0b79e1994e8ddd75a266b71c1b8c8a8430ae573d6416e3ba0e3",
     "11a7e4a1f59d6ceb6069c74a3312bd8ed77d0952856ab430b3548a8a8b61f9d9",
     "e1aa8fe8e219c19d45875c18aea4e2dd303e0f2b8dd19a3ae7291ca347c11e92"),
    ("ball:2", "phi", "8e27f73a30aba5ab6e0f9b3da21781066646782d8113790ac638a55941a9ba93",
     "85448fb3add6101a7b42027978d58576ad13953b5ca7829bd852d481f4913afe",
     "eea387638fe4adc81aaccfbe78d6ca0d77c1177ab84ab3ca0f5ed60209306de9"),
    ("ball:3", "h", "5bc1a7ec20155f799daf29e3db718348ba0be7c8cf3f850cccd5cadcb457e7f7",
     "81d837550f11d9ef44551820ab22998d4b221390ec6cccba25a35bcdec8c019f",
     "94b274b70b6a7f70c0f287c2a17d0345ab58c0d4ee9924446b4086dc8506dcb1"),
    ("ball:3", "j", "52b97c28ec3cda0710b548e71b3f634221322e71dc4d355dd3aa7a8f0cba63ab",
     "f9c0942f1eea2a4703690208c2a8b6dcc2c38489d8b305f18344185b573c7466",
     "801a332e2eb76667c1f70dfbe02ba3b340092d5f4de5c483aed66dd608da1732"),
    ("ball:3", "phi", "a4d5f654c86cf92fea6e98d45b61dfc7140c509e2927758367153d0a063ef4b2",
     "74a1049d750c013398543cc463db0f8b79a200866bdb2363e34c1f1e4c5c5959",
     "b58d7c11d2804c0365bd65a2a5f231c31fb4a609a4d7002576638a9827b03aa0"),
    ("halfspace:2", "h", "6960c5fcb8b5d60cfa741b1f422b3954c04ad4366f7609e081498fb4b46ec417",
     "045731f78c6dafcf44f1b3e2cb5d6412e826331f816ac141217a1cbd40bfcd04",
     "3e310cb1ed9ea8e597b77b5f31e2a7aae17dd09a37e9ef501423bcf0e8b13b73"),
    ("halfspace:2", "j", "19961d7a66c3ae9ffba4cc7dd309e505fa909c74742ae7b8973a7e78ff5757d8",
     "adfb350ba6c05202e77ab72468f4ed4b5da4064573fe04afad17a309623c2e90",
     "c5b5d3b58d64dcf49a4eee376bdbecb5a5c12a15838803f3a5d49516cee9bcdf"),
    ("halfspace:2", "phi", "88a5805f5ecbfec2e68c6185cbacb494b7051b7f1eb6e3c42a130a9d69f98ac3",
     "d916d7b407be7d3071576c5c0e2790fe578bacafbcdd9f27ce2758eadc352937",
     "650630aa58694b35177900dc92db003bf08e1b356c212a5edccf600ec5a5b28a"),
    ("punctured:2", "h", "e69bf06816f37f146dca0b666635b97811010162d83eba91597f230fb23bde75",
     "036c4b4f09b73ef5c73a4a3e467d435d00367dfc76fab77bc4a675cb68d61c42",
     "3776ed2c5366751d1a9437749c40be0b150fd565a220ec1fffdbfae2997bb94f"),
    ("punctured:2", "j", "6a94fa1fe59e7753a596b9283a2d230a6e632c642e90cfd508e0e8ba95e316d0",
     "9c4bb3747d6c51a21d76135dda4729c9b2c6f0f6f6f349c1d736800bcf033396",
     "96474eb5c2e5a779754cf85fb82ec92149180ec1ac85c2d0f219fc6749697432"),
    ("punctured:2", "phi", "274c517b6e57d520fbc495137db7e03aa01715ca6cd94c61f467e8d2a68e938c",
     "e0a289654403ce2afbf7eca38108783e6f9b93e81f5813c279c2d92157e8faad",
     "6a40a9f7f03ffde8ed82ab72af9f6153ac5567c5fa6de1cb77553c00b472a461"),
    ("interval:0:1", "h", "8e14f50dcc07d49bccf086f732939691087482023031e5efc4697dbf42b8626d",
     "cad271a6567a0cd6a6c46007b486ab5534e2102ef1d49fbf95cc03357033d438",
     "614f3df01963902b6e52450637cda06a8e5d7052bb7a31f478599d541cfeca22"),
    ("interval:0:1", "j", "b2c202389d945dc4c329a0c2a045df4ac6177567f1530eee8d75ffc262081b96",
     "93d9101f06e94af9dacf0666078af17badf30c2b28a08de719ebe13192d4c094",
     "0a4c12c2af9f68464d6119b9bdd60a8806aad54b530a9ac01ac478dbfcc6cc2a"),
    ("interval:0:1", "phi", "3591fed659c3076cbeee160475af2a9bc5a4c878f5a59d82a3df50292c7c7e4b",
     "062719136b9b392798b2d2cf7a5cd537595f58d0ad88b780c7c040175c883c86",
     "9cbf8a05aa6e86c278dbdc5a0ab31e5b6da940cfee52283a1279c58dcc8301a6"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec, metric, report_sha, v4_sha, v3_sha", SCAN_SHA256,
                         ids=[f"{s}-{m}" for s, m, *_ in SCAN_SHA256])
def test_scan_reports_and_slacks_keep_their_bits(spec, metric, report_sha, v4_sha, v3_sha):
    report = triangle_scan(parse_domain(spec), MetricKind.parse(metric), MetricParams(),
                           100_000, 3, keep_slacks=True)
    assert _sha(report.to_json().encode()) == report_sha
    slacks = {"X86_V4": v4_sha, "X86_V3": v3_sha}.get(_dispatch())
    if slacks is not None:
        assert _sha(np.ascontiguousarray(report.slacks, dtype="<f8").tobytes()) == slacks


# ---------------------------------------------------------------------------
# the other dispatch
# ---------------------------------------------------------------------------


def test_guards_without_avx512():
    if _dispatch() != "X86_V4":
        pytest.skip("numpy runs no AVX512 kernels here, so this run is the AVX2 one")
    here = Path(__file__)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import __cpu_features__ "
         "as f; print(f['X86_V4'], f['X86_V3'])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert probe.stdout.split() == ["False", "True"], probe.stderr
    # numpy warns when the machine lacks a feature it is told to disable
    # (AVX512_SPR on many AVX512 machines), which the warning filter of
    # the tests would turn into a collection error
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(here),
         "-W", "ignore:During parsing environment variable:ImportWarning",
         "--deselect", f"{here}::test_guards_without_avx512"],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
