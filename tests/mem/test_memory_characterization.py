"""Characterization pins for the memory layer's timing and counters.

One fixed program issues every traffic kind the controller serves — demand
fills, in-place write-backs, timing-only line writes, log reads, bulk
writes, bulk reads and module-local bulk copies — in idle and backlogged
phases. It runs with and without backpressure, on one and two channels,
with and without a write-through DRAM cache in front. Each call's result,
the final ``drain`` and the counters are pinned, so a refactor of the
layer cannot move a completion time, a stall or a counter unnoticed.
"""

import pytest

from repro.common.units import KB
from repro.mem.controller import MemoryController
from repro.mem.dram_cache import DramCache, DramCacheMode
from repro.mem.nvm import AccessCategory
from repro.mem.timing import NvmTimings

WB = AccessCategory.WRITEBACK
RND = AccessCategory.RANDOM
SEQ = AccessCategory.SEQUENTIAL
DRD = AccessCategory.DEMAND_READ


def _program():
    """(kind, addr or size, now, category) in issue order."""
    ops = [
        ("demand_fill", 0x0000, 0, None),
        ("demand_fill", 0x0800, 0, None),
        ("writeback", 0x0040, 100, WB),
    ]
    # A write-back burst at one cycle, over rows, pages and channels.
    ops += [("writeback", 0x1840 * i, 200, WB) for i in range(10)]
    ops += [("demand_fill", 0x0040, 250, None)]
    # Timing-only line writes (redo, shadow and apply writes).
    ops += [("write_line", 0x0900 * i + 0xC0, 300, (WB, RND)[i % 2]) for i in range(8)]
    ops += [("log_read_line", 0x0800 * i + 0x100, 400, None) for i in range(6)]
    ops += [("bulk_write", 2048, 500, SEQ) for _ in range(3)]
    ops += [("bulk_write", 64, 500, WB), ("bulk_write", 4096, 510, SEQ)]
    ops += [("bulk_copy", 4096, 600, None) for _ in range(3)]
    ops += [("bulk_read", 4096, 700, SEQ), ("bulk_read", 64, 700, DRD)]
    ops += [("demand_fill", 0x0040, 800, None), ("demand_fill", 0x3000, 800, None)]
    # Long after: the backlog has decayed.
    ops += [
        ("writeback", 0x0040, 60_000, RND),
        ("demand_fill", 0x0040, 60_100, None),
        ("write_line", 0x2000, 60_200, WB),
        ("bulk_copy", 8192, 60_300, None),
        ("log_read_line", 0x2800, 60_400, None),
    ]
    return ops


def _issue(mc, kind, arg, now, category, backpressure, token):
    """One controller call; returns its result tuple."""
    if kind == "demand_fill":
        return mc.demand_fill(arg, now)
    if kind == "writeback":
        return mc.writeback(arg, token, now, category, backpressure=backpressure)
    if kind == "write_line":
        return mc.write_line(arg, now, category, backpressure=backpressure)
    if kind == "log_read_line":
        return mc.log_read_line(arg, now, backpressure=backpressure)
    if kind == "bulk_write":
        return mc.bulk_write(arg, now, category, backpressure=backpressure)
    if kind == "bulk_read":
        return (mc.bulk_read(arg, now, category),)
    assert kind == "bulk_copy"
    return mc.bulk_copy(arg, now, backpressure=backpressure)


def _run(n_channels, dram, backpressure):
    cache = (
        DramCache(64 * KB, assoc=2, mode=DramCacheMode.WRITE_THROUGH)
        if dram else None
    )
    mc = MemoryController(NvmTimings(n_channels=n_channels), dram_cache=cache)
    results = [
        tuple(_issue(mc, kind, arg, now, category, backpressure, token=index + 1))
        for index, (kind, arg, now, category) in enumerate(_program())
    ]
    return results, mc.drain(60_500), dict(sorted(mc.stats.as_dict().items()))


CASES = [
    (n_channels, dram, backpressure)
    for n_channels in (1, 2)
    for dram in (False, True)
    for backpressure in (True, False)
]


def _case_id(case):
    n_channels, dram, backpressure = case
    return "%dch-%s-bp%s" % (
        n_channels, "dram" if dram else "nodram", "on" if backpressure else "off"
    )


EXPECTED = {
    "1ch-nodram-bpon": (
        [
            (266, 0), (532, 0), (846, 0), (1592, 0), (2338, 0), (3084, 0), (3830, 0),
            (4576, 0), (5322, 376), (6068, 746), (6814, 1122), (7560, 1492),
            (8306, 1868), (1284, 3), (9052, 2238), (9798, 2514), (10544, 2984),
            (11290, 3260), (12036, 3730), (12782, 4006), (13528, 4476), (14274, 4752),
            (14540, 5222), (14806, 4918), (15072, 5184), (15338, 5450), (15604, 5488),
            (15870, 5716), (16926, 5754), (17982, 6672), (19038, 6810), (19784, 7728),
            (21896, 7556), (23880, 9668), (25864, 9612), (27848, 11596), (3422,),
            (4424,), (4626, 3), (5628, 0), (60746, 0), (912, 41), (61492, 0),
            (65460, 0), (65726, 1060),
        ],
        4266,
        {
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 4992,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 7,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    "1ch-nodram-bpoff": (
        [
            (266, 0), (532, 0), (846, 0), (1592, 0), (2338, 0), (3084, 0), (3830, 0),
            (4576, 0), (5322, 0), (6068, 0), (6814, 0), (7560, 0), (8306, 0), (1284, 3),
            (9052, 0), (9798, 0), (10544, 0), (11290, 0), (12036, 0), (12782, 0),
            (13528, 0), (14274, 0), (14540, 0), (14806, 0), (15072, 0), (15338, 0),
            (15604, 0), (15870, 0), (16926, 0), (17982, 0), (19038, 0), (19784, 0),
            (21896, 0), (23880, 0), (25864, 0), (27848, 0), (3422,), (4424,), (4626, 3),
            (5628, 0), (60746, 0), (912, 41), (61492, 0), (65460, 0), (65726, 0),
        ],
        5226,
        {
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 4992,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 7,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    "1ch-dram-bpon": (
        [
            (1252, 0), (100, 0), (846, 0), (1592, 0), (2338, 0), (3084, 0), (3830, 0),
            (4576, 0), (5322, 376), (6068, 746), (6814, 1122), (7560, 1492),
            (8306, 1868), (100, 3), (9052, 2238), (9798, 2514), (10544, 2984),
            (11290, 3260), (12036, 3730), (12782, 4006), (13528, 4476), (14274, 4752),
            (14540, 5222), (14806, 4918), (15072, 5184), (15338, 5450), (15604, 5488),
            (15870, 5716), (16926, 5754), (17982, 6672), (19038, 6810), (19784, 7728),
            (21896, 7556), (23880, 9668), (25864, 9612), (27848, 11596), (20032,),
            (21034,), (100, 3), (100, 0), (60746, 0), (100, 41), (61492, 0), (65460, 0),
            (65726, 1060),
        ],
        4266,
        {
            "dram.hits": 5,
            "dram.misses": 10,
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 45568,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 11,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    # The write-through cache honours backpressure=False: no write-back
    # stalls, as without it.
    "1ch-dram-bpoff": (
        [
            (1252, 0), (100, 0), (846, 0), (1592, 0), (2338, 0), (3084, 0), (3830, 0),
            (4576, 0), (5322, 0), (6068, 0), (6814, 0), (7560, 0), (8306, 0), (100, 3),
            (9052, 0), (9798, 0), (10544, 0), (11290, 0), (12036, 0), (12782, 0),
            (13528, 0), (14274, 0), (14540, 0), (14806, 0), (15072, 0), (15338, 0),
            (15604, 0), (15870, 0), (16926, 0), (17982, 0), (19038, 0), (19784, 0),
            (21896, 0), (23880, 0), (25864, 0), (27848, 0), (20032,), (21034,),
            (100, 3), (100, 0), (60746, 0), (100, 41), (61492, 0), (65460, 0),
            (65726, 0),
        ],
        5226,
        {
            "dram.hits": 5,
            "dram.misses": 10,
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 45568,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 11,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    "2ch-nodram-bpon": (
        [
            (266, 0), (266, 0), (846, 0), (1592, 0), (946, 0), (2338, 0), (1692, 0),
            (3084, 0), (2438, 0), (3830, 0), (3184, 0), (4576, 0), (3930, 0), (1018, 3),
            (5322, 276), (4676, 0), (6068, 746), (5422, 376), (6814, 1022), (6168, 746),
            (7560, 1492), (6914, 1122), (7826, 1768), (7180, 1492), (8092, 1658),
            (7446, 1288), (8358, 1924), (7712, 1554), (8768, 1758), (9414, 2034),
            (9824, 2510), (10570, 2814), (11526, 2880), (12554, 3256), (13510, 4136),
            (14538, 4698), (3156,), (4158,), (4360, 3), (5362, 0), (60746, 0),
            (912, 41), (61492, 0), (64268, 0), (64534, 0),
        ],
        4034,
        {
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 4992,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 7,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    "2ch-nodram-bpoff": (
        [
            (266, 0), (266, 0), (846, 0), (1592, 0), (946, 0), (2338, 0), (1692, 0),
            (3084, 0), (2438, 0), (3830, 0), (3184, 0), (4576, 0), (3930, 0), (1018, 3),
            (5322, 0), (4676, 0), (6068, 0), (5422, 0), (6814, 0), (6168, 0), (7560, 0),
            (6914, 0), (7826, 0), (7180, 0), (8092, 0), (7446, 0), (8358, 0), (7712, 0),
            (8768, 0), (9414, 0), (9824, 0), (10160, 0), (11936, 0), (12144, 0),
            (13920, 0), (14128, 0), (2588,), (3590,), (1470, 3), (2472, 0), (60746, 0),
            (912, 41), (61492, 0), (64268, 0), (64534, 0),
        ],
        4034,
        {
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 4992,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 7,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    "2ch-dram-bpon": (
        [
            (1252, 0), (100, 0), (846, 0), (1592, 0), (946, 0), (2338, 0), (1692, 0),
            (3084, 0), (2438, 0), (3830, 0), (3184, 0), (4576, 0), (3930, 0), (100, 3),
            (5322, 276), (4676, 0), (6068, 746), (5422, 376), (6814, 1022), (6168, 746),
            (7560, 1492), (6914, 1122), (7826, 1768), (7180, 1492), (8092, 1658),
            (7446, 1288), (8358, 1924), (7712, 1554), (8768, 1758), (9414, 2034),
            (9824, 2510), (10570, 2814), (11526, 2880), (12554, 3256), (13510, 4136),
            (14538, 4698), (3040,), (4042,), (100, 3), (100, 0), (60746, 0), (100, 41),
            (61492, 0), (64268, 0), (64534, 0),
        ],
        4034,
        {
            "dram.hits": 5,
            "dram.misses": 10,
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 45568,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 11,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
    "2ch-dram-bpoff": (
        [
            (1252, 0), (100, 0), (846, 0), (1592, 0), (946, 0), (2338, 0), (1692, 0),
            (3084, 0), (2438, 0), (3830, 0), (3184, 0), (4576, 0), (3930, 0), (100, 3),
            (5322, 0), (4676, 0), (6068, 0), (5422, 0), (6814, 0), (6168, 0), (7560, 0),
            (6914, 0), (7826, 0), (7180, 0), (8092, 0), (7446, 0), (8358, 0), (7712, 0),
            (8768, 0), (9414, 0), (9824, 0), (10160, 0), (11936, 0), (12144, 0),
            (13920, 0), (14128, 0), (18344,), (19346,), (100, 3), (100, 0), (60746, 0),
            (100, 41), (61492, 0), (64268, 0), (64534, 0),
        ],
        4034,
        {
            "dram.hits": 5,
            "dram.misses": 10,
            "mem.demand_fills": 6,
            "mem.writebacks": 12,
            "nvm.bytes_read": 45568,
            "nvm.bytes_written": 11648,
            "nvm.iops.demand_read": 11,
            "nvm.iops.random": 12,
            "nvm.iops.sequential": 9,
            "nvm.iops.writeback": 17,
        },
    ),
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_program_is_pinned(case):
    results, drained, stats = _run(*case)
    expected_results, expected_drain, expected_stats = EXPECTED[_case_id(case)]
    assert results == expected_results
    assert drained == expected_drain
    assert stats == expected_stats
