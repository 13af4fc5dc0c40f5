"""Golden digests: the exact bytes of ``runs.csv`` and ``cid_series.csv`` for one
small config per algorithm, plus budgets that end nsga2 mid-generation and
nsga2d mid-repopulation; each sampler's reference set on two_ball Large; and
the poisson and fps reference sets on avp_analog Medium.

A refactor or speed-up that must not change results keeps these hashes. A
change that alters them on purpose records the new values and the reason in
CHANGES.md.
"""

import hashlib

import pytest

from failcover.coverage import build_reference_set
from failcover.harness import parse_config, run_experiment
from failcover.problems import get_problem


def golden_config(problem: str, algorithm: str, params: dict, k: int, budget: int = 400) -> dict:
    return {
        "problem": {"name": problem, "variant": "Large"},
        "algorithms": [{"name": algorithm, "params": params}],
        "budget": budget,
        "repetitions": 1,
        "base_seed": 11,
        "refset": {"strategy": "grid", "params": {"k": k}},
    }


GOLDEN = {
    "two_ball-rs": (
        golden_config("two_ball", "rs", {}, 64),
        "bd49b77e371eeb810b02ab34bc0166df26094e7270b88ae26f1cd8b7fd87beac",
        "cdd5b9b4b0cfce94dae7b4f13d9f48cb4cc15ea5e4a7c45232b5f657cedb86f7",
    ),
    "two_ball-nsga2": (
        golden_config("two_ball", "nsga2", {}, 64),
        "2f609b5bdff8bf98161bba021b694024ace5bd5086f4b709a519385920453724",
        "bc8ebb989c19dddd20ae17e0a45dbb3994b56653a696a05575ec410b27ad1c68",
    ),
    "two_ball-nsga2d": (
        golden_config("two_ball", "nsga2d", {}, 64),
        "89b4fb2d7ad2eb338f573ef111932bf4fee555f6d1ca833a552093ed344b92ab",
        "84fc4fb7013dafde0a82b35cb930e14fa61f32e551b382ce586ad36240993f48",
    ),
    # 40 + 9 * 40 + 30: the budget runs out 30 offspring into generation 10.
    "two_ball-nsga2-mid-generation": (
        golden_config("two_ball", "nsga2", {}, 64, budget=430),
        "9e7c338223ce3fe7ef00b749367b8ee9f2cc28c2ad669818c6bf4bef901027de",
        "80c686fc3fcbb3dec4a00c0ea5ba628e5a43712dd8613de79225546e86c78add",
    ),
    # 40 + 8 * 44 + 40 + 2: the budget runs out two victims into generation 9's
    # repopulation of four.
    "two_ball-nsga2d-mid-repopulation": (
        golden_config("two_ball", "nsga2d", {}, 64, budget=434),
        "1cb1216015c7d18245002dd2d14ada37ed283f8af2a29799a62424097036b082",
        "428cacba96e7b1039eb88b41e0a23321c5c600178ebf83411167d8d5fd9a3e17",
    ),
    "two_ball-omopso": (
        golden_config("two_ball", "omopso", {}, 64),
        "48b4cf3dfa4b215aae7217f65b63588b6f12fe643f094ea139dc7795cc6241c7",
        "214b197b88e0a0195f173ef6f73016718d7cd974d898b3c44fc8ccd46e8895b9",
    ),
    # An archive of 10 under a swarm of 40 overflows on nearly every insert,
    # so this pins the crowding eviction order.
    "avp_analog-omopso-evicting": (
        golden_config("avp_analog", "omopso", {"swarm_size": 40, "archive_size": 10}, 32),
        "a95930558cf37d535c8b5755eb7dd0cdf2132908d48dbb73b8ae865fef6d768d",
        "a0e2f306117a2f6c1cce8ac372cf955d2f11a318d7f856c7e371b642268a2507",
    ),
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_bytes_match_golden_digest(name, tmp_path):
    raw, runs_sha, series_sha = GOLDEN[name]
    run_experiment(parse_config(raw), tmp_path)
    assert (sha256_of(tmp_path / "runs.csv"), sha256_of(tmp_path / "cid_series.csv")) == (
        runs_sha,
        series_sha,
    )


#: Name -> (problem, variant, sampler params, points kept, ReferenceSet.content_hash());
#: the sampler is the name's last part. The two_ball sets cover every sampler;
#: the avp_analog ones pin poisson's neighbour grid and fps's distance sums in
#: 3-D, the dimension of the reference-set studies.
GOLDEN_REFSETS = {
    "grid": ("two_ball", "Large", {"k": 32}, 216,
             "49049b8a7d4a19e7360282598d08b2047436ff8c19a3a8a3d351f7dd4ca3b5dd"),
    "lhs": ("two_ball", "Large", {"n": 300, "seed": 3}, 69,
            "7f92ca69b9d7c43d671a04e8a23baa1f1a3e3808d75a2e803ec164c180d5f69d"),
    "fps": ("two_ball", "Large", {"n": 200, "seed": 3}, 36,
            "16b6812b95fe5ae367c06ce643a6b09a962fb3cf9bbd82c91f28182da1cdd9c9"),
    "poisson": ("two_ball", "Large", {"r": 0.05, "seed": 3}, 57,
                "e20cb26dcd66bd2ec5896447bc6220806358acc51a4dca06ba4e869017cc0acd"),
    "uniform": ("two_ball", "Large", {"n": 300, "seed": 3}, 74,
                "be0b9cb54795bec7a114689f878b82ffd1ba0d51e5b732f045676592b4700a1f"),
    "avp_analog-poisson": ("avp_analog", "Medium", {"r": 0.1, "seed": 3}, 53,
                           "50badff621bd3a68852f3e3729197104482fded75b9468605037b0433628b52e"),
    "avp_analog-fps": ("avp_analog", "Medium", {"n": 200, "seed": 3}, 17,
                       "96274d0b539ec03658b5d99d0f3dfbcaa45e159a448a81f748c7f7881cfb7575"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REFSETS))
def test_reference_set_matches_golden_digest(name):
    problem, variant, params, size, digest = GOLDEN_REFSETS[name]
    strategy = name.split("-")[-1]
    refset = build_reference_set(
        get_problem(problem, variant), {"strategy": strategy, "params": params}
    )
    assert (len(refset), refset.content_hash()) == (size, digest)
