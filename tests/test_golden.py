"""Golden digests: the exact bytes of ``runs.csv`` and ``cid_series.csv`` for one
small config per algorithm, plus budgets that end nsga2 mid-generation and
nsga2d mid-repopulation; the analysis outputs ``summary.csv``, ``stats.csv``
and ``report.md`` of a three-algorithm experiment and of one whose pair is
skipped; each sampler's reference set on two_ball Large; and the poisson and
fps reference sets on avp_analog Medium.

A refactor or speed-up that must not change results keeps these hashes. A
change that alters them on purpose records the new values and the reason in
CHANGES.md.
"""

import hashlib

import pytest

from failcover.coverage import build_reference_set
from failcover.harness import compare, emit_report, parse_config, run_experiment
from failcover.problems import get_problem


def golden_config(
    problem: str, algorithm: str, params: dict, k: int, budget: int = 400, variant: str = "Large"
) -> dict:
    return {
        "problem": {"name": problem, "variant": variant},
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
    # 61 * 7 + 3: the budget runs out three draws into the last block.
    "two_ball-rs-uneven-blocks": (
        golden_config("two_ball", "rs", {"batch_size": 7}, 64, budget=430),
        "702c86f7527d08ad076cfefcf2b28e14ea60ee34975239f89990773c811a6801",
        "ff2d4ac0c80fca4180c8aaf3b44ab850408ea3cb1b3fd7fbb53c70baca96a01e",
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
    # Thirds of 3, 2 and 2 particles, a last pass cut after its first particle,
    # and 58 reflected variables where two_ball-omopso has 33.
    "two_ball-omopso-small-swarm": (
        golden_config("two_ball", "omopso", {"swarm_size": 7}, 64, variant="Small"),
        "a95ee4d8e7a6b2dd66538726cb3d189b8f3d403ff9b21058d6b26fa6c95b0acd",
        "1aaacdd9e8862f6b5ac15af25322a0341ad78df8234d046be377cefe69caadbc",
    ),
    # An archive of 10 under a swarm of 40 overflows on nearly every insert,
    # so this pins the crowding eviction order.
    "avp_analog-omopso-evicting": (
        golden_config("avp_analog", "omopso", {"swarm_size": 40, "archive_size": 10}, 32),
        "a95930558cf37d535c8b5755eb7dd0cdf2132908d48dbb73b8ae865fef6d768d",
        "a0e2f306117a2f6c1cce8ac372cf955d2f11a318d7f856c7e371b642268a2507",
    ),
    # An archive of 60 that grows to 36 members without evicting, so this pins
    # the dominance scan and the leader picks on a wide archive.
    "avp_analog-omopso-wide-archive": (
        golden_config("avp_analog", "omopso", {"swarm_size": 60, "archive_size": 60}, 32),
        "e2dc44a6c9de00f0220f140323734aa46653080e7b206b079f6531548aadd117",
        "158cc3cc8a127aa60e3681c086be2cc28232b9ba8a036f600c1b1f7d9d2fede2",
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


def analysis_config(algorithms: list[dict], **overrides) -> dict:
    raw = {
        "problem": {"name": "two_ball", "variant": "Large"},
        "algorithms": algorithms,
        "budget": 200,
        "repetitions": 3,
        "base_seed": 11,
        "refset": {"strategy": "grid", "params": {"k": 64}},
        "cid": {"interval": 50},
    }
    raw.update(overrides)
    return raw


#: Name -> (config, sha256 of each analysis output). The report is drawn before
#: any compare, then after each test's compare.
GOLDEN_ANALYSIS = {
    "two_ball-three-algorithms": (
        analysis_config([{"name": "rs", "params": {"batch_size": 20}},
                         {"name": "nsga2", "params": {"population_size": 20}},
                         {"name": "omopso", "params": {"swarm_size": 20}}]),
        {
            "summary.csv":
                "e547089d1cdad2a24168ba06ee71b70d83384f6378a2a0502307f8afc868da94",
            "report.md":
                "674bd7f5dea5c3c9ef6c234706d43b15c2cfd1103caaf75a96048a79e68efd6e",
            "stats.csv ranksum":
                "39901060cfeb48a08ebe38d34ba9b1987f496f960834546e10e08d88ba66fd71",
            "report.md ranksum":
                "64ef6673d5135a4ad664006b50a3ac58fe5dba195a2fc37b651e29db2028c120",
            "stats.csv signedrank":
                "1ddcf437572d194d33190a783fb268cb13c991020e8b9f7533f7973c38ef81ea",
            "report.md signedrank":
                "3a65e2ee488c8867b8dffd0c2e67f20d985852207a59a8fb44bca134d176aae0",
        },
    ),
    # Discs too small for 60 evaluations to hit: every final CID is undefined,
    # the summary has empty cells and the one pair is skipped.
    "two_ball-skipped-pair": (
        analysis_config(
            [{"name": "rs", "params": {"batch_size": 20}},
             {"name": "nsga2", "params": {"population_size": 20}}],
            problem={"name": "two_ball", "variant": "Large",
                     "params": {"c1": [0.1, 0.1], "c2": [0.12, 0.1], "t1": 0.011, "t2": 0.011}},
            budget=60,
            repetitions=1,
            refset={"strategy": "grid", "params": {"k": 400}},
            cid={"interval": 40},
        ),
        {
            "summary.csv":
                "687941682a21136528f721655882e33fc22f04e3d16da4283ac0390b31bee7da",
            "report.md":
                "89876ee42b5b8d1264b0205fabf0b85be95b477d71c44441b7e1f59f9fce40ca",
            "stats.csv ranksum":
                "c31c5ad0e3d3d5b1ca19b2ec451eee2f4f303733b150f857e13ae945be491bc0",
            "report.md ranksum":
                "7410927daa21819859dde7dc804e42fc26c8ea88516ebf01ef50db6bf6b9fc79",
            "stats.csv signedrank":
                "fdaa05bd91172819e732690bc7f07a9e6663f204f00d73cdbe13c9ca9ff23e8d",
            "report.md signedrank":
                "0f2315d03e44a4d2e2fb85b4f934b0b82aa2525f01f5a7fe95669c979ebe455d",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYSIS))
def test_analysis_bytes_match_golden_digest(name, tmp_path):
    raw, digests = GOLDEN_ANALYSIS[name]
    run_experiment(parse_config(raw), tmp_path)
    emit_report(tmp_path)
    got = {"summary.csv": sha256_of(tmp_path / "summary.csv"),
           "report.md": sha256_of(tmp_path / "report.md")}
    for test in ("ranksum", "signedrank"):
        compare(tmp_path, test=test)
        emit_report(tmp_path)
        got[f"stats.csv {test}"] = sha256_of(tmp_path / "stats.csv")
        got[f"report.md {test}"] = sha256_of(tmp_path / "report.md")
    assert got == digests


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
