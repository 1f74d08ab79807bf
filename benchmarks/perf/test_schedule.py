import json

from service_load import FRESH_SHARE, RATE, schedule


def test_open_loop_schedule_is_byte_identical_for_a_seed():
    assert json.dumps(schedule(7, 15.0)) == json.dumps(schedule(7, 15.0))
    assert json.dumps(schedule(7, 15.0)) != json.dumps(schedule(8, 15.0))
    # the seed draws the job mix; the arrival times are the same draw
    dues = [[job["due"] for job in schedule(seed, 15.0)] for seed in (7, 8)]
    assert dues[0] == dues[1]


def test_schedule_shape():
    jobs = schedule(3, 30.0)
    dues = [job["due"] for job in jobs]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 30.0
    assert abs(len(jobs) - RATE * 30.0) < 4 * (RATE * 30.0) ** 0.5
    fresh = [job for job in jobs if not job["repeat"]]
    assert [job["program"] for job in fresh] == list(range(len(fresh)))
    assert abs(len(fresh) / len(jobs) - FRESH_SHARE) < 0.06
    seen = set()
    for job in jobs:
        # a repeat always names a program already scheduled
        assert not job["repeat"] or job["program"] in seen
        seen.add(job["program"])
