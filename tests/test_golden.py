"""Golden outputs: reports that must not change under refactors.

The expected strings were captured from the library before domains took
over their own geometry (boundary strata, chord reach, geodesic windows,
complement samples) and before each clearance was read once per point;
they pin the seeded random streams and the arithmetic of every path that
change touched.  A difference here means a report changed, which the
reproducibility contract forbids unless it is intended and recorded.
"""

import io
from contextlib import redirect_stdout

import pytest

from hypermetric.cli import run
from hypermetric.metrics import MetricKind, MetricParams
from hypermetric.quasihyperbolic import k_estimate
from hypermetric.verify import triangle_scan, uniformity_estimate

from test_domains import annulus_domain

#: (argv, exit status, stdout): the README invocations (uniformity at
#: --count 16 instead of 160), h scans and the L3_1 suite on each
#: built-in variant, one punctured-space k estimate, the other three map
#: specs, the two Moebius-distortion suites, and the k queries on shared
#: grids (C4_5 and a k estimate on the ball, QHJ on the interval),
#: captured before grids were shared between queries
CLI_GOLDEN = [
    ('dist --domain ball:2 --metric h --c 2 --points 0,0 0.5,0', 0,
     '0.881374\n'),
    ('falsify --domain ball:2 --c 1.9', 1,
     '{"c": 1.9, "domain": "ball:2", "lhs_two_sided": 7.317601091397254, "rhs_chord": 7.319869729865858, "violating_r": 0.9974881135684904}\n'),
    ('verify-suite --suite T4_6 --domain ball:2 --c 2 --count 10000 --seed 42', 0,
     '{"domain": "ball:2", "min_slack": 0.0036171390951377103, "params": {"c": 2.0}, "pass": true, "sample_count": 10000, "seed": 42, "suite_id": "T4_6", "tolerance": 1e-09, "witness": [[0.10310282043738872, 0.4784726327344462], [0.09789157058340625, 0.4789436523991626]]}\n'),
    ('scan-triangle --domain ball:2 --metric phi --count 100000 --seed 42', 1,
     '{"domain": "ball:2", "min_slack": -1.3557117401108982, "params": {"metric": "phi"}, "pass": false, "sample_count": 100000, "seed": 42, "suite_id": "triangle", "tolerance": 1e-09, "witness": [[0.40485240781230974, -0.9044270812812205], [-0.4106838738507206, 0.900743628111437], [0.00309965468679807, -0.015156648234208259]]}\n'),
    ('k-estimate --domain halfspace:2 --points 0,1 1,1 --spacing 0.05 --refinements 2', 0,
     '{"domain": "halfspace:2", "refinement_history": [[0.05, 0.9648072422687036], [0.025, 0.9634468887595058], [0.0125, 0.9633068855551247]], "spacing": 0.0125, "value": 0.9633068855551247}\n'),
    ('dilatation --map auto:0.5,0 --z 0,0 --radii 0.1,0.01,0.001', 0,
     '{"H_hat": 1.0010005002500648, "map": "auto:0.5,0", "radii": [0.1, 0.01, 0.001], "ratios": [1.1052631578947378, 1.0100502512562604, 1.0010005002500648], "z": [0.0, 0.0]}\n'),
    ('uniformity --domain ball:2 --count 16 --seed 7', 0,
     '{"U_hat": 1.414971929027296, "domain": "ball:2", "sample_count": 16, "worst_pair": [[0.228201791614065, -0.7142386959687607], [-0.4995061505886059, 0.5878698370932843]]}\n'),
    ('scan-triangle --domain ball:2 --metric h --count 20000 --seed 3', 0,
     '{"domain": "ball:2", "min_slack": 0.0, "params": {"c": 2.0, "metric": "h"}, "pass": true, "sample_count": 20000, "seed": 3, "suite_id": "triangle", "tolerance": 1e-09, "witness": [[0.04661399895862117, -0.8635161670885498], [-0.7606492113086258, -0.6434595126253619], [-0.7606492113086258, -0.6434595126253619]]}\n'),
    ('scan-triangle --domain halfspace:2 --metric h --count 20000 --seed 3', 0,
     '{"domain": "halfspace:2", "min_slack": 0.0, "params": {"c": 2.0, "metric": "h"}, "pass": true, "sample_count": 20000, "seed": 3, "suite_id": "triangle", "tolerance": 1e-09, "witness": [[-1.1492405408608244, 2.0515008231883667], [-1.9970435693212774, 0.0005685106750363822], [-1.9970435693212774, 0.0005685106750363822]]}\n'),
    ('scan-triangle --domain punctured:2 --metric h --count 20000 --seed 3', 0,
     '{"domain": "punctured:2", "min_slack": 0.00018230394461804522, "params": {"c": 2.0, "metric": "h"}, "pass": true, "sample_count": 20000, "seed": 3, "suite_id": "triangle", "tolerance": 1e-09, "witness": [[-1.0330798619438784, 0.8658377126456697], [1.3811694128408458, 0.7836899434107284], [-1.0329488044573134, 0.8658332532552184]]}\n'),
    ('scan-triangle --domain interval:0:1 --metric h --count 20000 --seed 3', 0,
     '{"domain": "interval:0:1", "min_slack": 0.0, "params": {"c": 2.0, "metric": "h"}, "pass": true, "sample_count": 20000, "seed": 3, "suite_id": "triangle", "tolerance": 1e-09, "witness": [[0.34164874105653964], [0.9948739528588832], [0.9948739528588832]]}\n'),
    ('verify-suite --suite L3_1 --domain ball:2 --seed 3', 0,
     '{"domain": "ball:2", "min_slack": 3.729853961242924e-07, "params": {"c": 2.0, "set_size": 8}, "pass": true, "sample_count": 10000, "seed": 3, "suite_id": "L3_1", "tolerance": 1e-12, "witness": [[-0.800001533529052, -0.3578245578281454], [-0.8395906748068203, -0.2551907046965127]]}\n'),
    ('verify-suite --suite L3_1 --domain halfspace:2 --seed 3', 0,
     '{"domain": "halfspace:2", "min_slack": 6.371332550436648e-08, "params": {"c": 2.0, "set_size": 8}, "pass": true, "sample_count": 10000, "seed": 3, "suite_id": "L3_1", "tolerance": 1e-12, "witness": [[0.27551019591705783, 1.770251076428425], [0.56660496909742, 3.4534424564648085]]}\n'),
    ('verify-suite --suite L3_1 --domain punctured:2 --seed 3', 0,
     '{"domain": "punctured:2", "min_slack": 1.7137915891973776e-08, "params": {"c": 2.0, "set_size": 1}, "pass": true, "sample_count": 10000, "seed": 3, "suite_id": "L3_1", "tolerance": 1e-12, "witness": [[1.5198196131337873, 0.7999578763261281], [1.3801513257703664, 0.7263641820864648]]}\n'),
    ('verify-suite --suite L3_1 --domain interval:0:1 --seed 3', 0,
     '{"domain": "interval:0:1", "min_slack": 0.0, "params": {"c": 2.0, "set_size": 8}, "pass": true, "sample_count": 10000, "seed": 3, "suite_id": "L3_1", "tolerance": 1e-12, "witness": [[0.40719719128199483], [0.3045567644571672]]}\n'),
    ('k-estimate --domain punctured:2 --points 1,0 0.3,0.8 --spacing 0.1 --refinements 1', 0,
     '{"domain": "punctured:2", "refinement_history": [[0.1, 1.2304341031043768], [0.05, 1.224756373946804]], "spacing": 0.05, "value": 1.224756373946804}\n'),
    ('dilatation --map identity:ball:2 --z 0.1,0.2', 0,
     '{"H_hat": 1.0000000000000249, "map": "identity:ball:2", "radii": [0.1, 0.01, 0.001], "ratios": [1.0000000000000007, 1.0000000000000029, 1.0000000000000249], "z": [0.1, 0.2]}\n'),
    ('dilatation --map b2h:2 --z 0,0', 0,
     '{"H_hat": 1.0020020020020135, "map": "b2h:2", "radii": [0.1, 0.01, 0.001], "ratios": [1.2222222222222223, 1.0202020202020259, 1.0020020020020135], "z": [0.0, 0.0]}\n'),
    ('dilatation --map stretch:2.0 --z 0.3,0.1', 0,
     '{"H_hat": 2.000714904598754, "map": "stretch:2.0", "radii": [0.1, 0.01, 0.001], "ratios": [2.3251795458305056, 2.031033800522497, 2.000714904598754], "z": [0.3, 0.1]}\n'),
    ('verify-suite --suite L2_5 --domain ball:2 --count 2000', 0,
     '{"domain": "ball:2", "min_slack": 0.05561025832404791, "params": {"c": 2.0, "isometry_max_gap": 5.693223670277803e-13, "map_count": 20, "observed_sup_ratio": 1.4133662628950217}, "pass": true, "sample_count": 2000, "seed": 0, "suite_id": "L2_5", "tolerance": 1e-10, "witness": [[0.07515009073350964, 0.01092059755703767], [0.05339960925816767, 0.03364584375362134]]}\n'),
    ('verify-suite --suite L2_7 --domain ball:2 --count 2000', 0,
     '{"domain": "ball:2", "min_slack": 0.01179121417847466, "params": {"c": 2.0, "isometry_max_gap": 5.133671265866724e-13, "map_count": 20, "observed_sup_ratio": 1.8197835495059103}, "pass": true, "sample_count": 2000, "seed": 0, "suite_id": "L2_7", "tolerance": 1e-10, "witness": [[0.07515009073350964, 0.01092059755703767], [0.05339960925816767, 0.03364584375362134]]}\n'),
    ('verify-suite --suite C4_5 --domain ball:2 --count 24 --seed 808', 0,
     '{"domain": "ball:2", "min_slack": 0.0823114942319264, "params": {"c": 2.0, "d_constant": 0.21762375133850673, "relative": true, "u_hat": 1.5316955584266356}, "pass": true, "sample_count": 24, "seed": 808, "suite_id": "C4_5", "tolerance": 0.02, "witness": [[0.38278745706250783, 0.1264250507542133], [0.39698609490621184, 0.07744457603333554]]}\n'),
    ('k-estimate --domain ball:2 --points 0.1,0.2 0.5,-0.3 --spacing 0.1 --refinements 1', 0,
     '{"domain": "ball:2", "refinement_history": [[0.1, 0.9897692372889575], [0.05, 0.9886775362602391]], "spacing": 0.05, "value": 0.9886775362602391}\n'),
    ('verify-suite --suite QHJ --domain interval:0:1', 0,
     '{"domain": "interval:0:1", "min_slack": 1.2463521170631643e-16, "params": {"c": 2.0, "relative": true}, "pass": true, "sample_count": 10000, "seed": 0, "suite_id": "QHJ", "tolerance": 0.02, "witness": [[0.4367420026142165], [0.43664703243358616]]}\n'),
]


@pytest.mark.parametrize("argv, status, stdout", CLI_GOLDEN, ids=[g[0] for g in CLI_GOLDEN])
def test_cli_output_unchanged(argv, status, stdout):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv.split())
    assert (code, buf.getvalue()) == (status, stdout)


class TestGenericDomain:
    """The annulus 0.25 < |x| < 1 through caller oracles: no boundary
    parametrization, no collinear stratum, the sample box as window."""

    def test_triangle_scan(self):
        report = triangle_scan(annulus_domain(), MetricKind.H, MetricParams(2.0), 20_000,
                               seed=3)
        assert report.to_json() == (
            '{"domain": "generic:2", "min_slack": 0.013138292232835358, "params": {"c": 2'
            '.0, "metric": "h"}, "pass": true, "sample_count": 20000, "seed": 3, "suite_i'
            'd": "triangle", "tolerance": 1e-09, "witness": [[0.07708811993125919, -0.683'
            '4388002147171], [0.0755194508182706, -0.685271454117389], [-0.54870941293893'
            '49, -0.1434127241280614]]}')

    def test_uniformity_estimate(self):
        est = uniformity_estimate(annulus_domain(), 16, seed=3)
        assert (est.U_hat, est.sample_count) == (3.232723266318816, 16)
        assert est.worst_pair == ((0.4233893900985557, 0.31639497413133255),
                                  (-0.5057338632916222, -0.2404850921768109))

    def test_k_estimate(self):
        est = k_estimate(annulus_domain(), (0.6, 0.0), (-0.3, 0.5), 0.1, 1)
        assert est.refinement_history == [(0.1, 3.655245188063194), (0.05, 3.605416183419546)]
