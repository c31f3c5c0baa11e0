"""Golden-value regression suite for the paper's headline numbers.

Every value here was frozen from the seed implementation *before* the
evaluation runtime (``repro.runtime``) was wired into the sweeps, so any
refactor of the execution machinery — parallelism, memoization, caching —
that silently drifts a result fails loudly.  Tolerances are tight
(``REL = 1e-9``): the pipeline is pure float arithmetic and must stay
bit-stable; only a deliberate model change may update these constants.

Pinned artifacts:

* Fig. 2 case study — 1 -> 8 CSs at iso footprint/capacity (paper Sec. II).
* Table I — all per-layer ResNet-18 rows and the 5.67x EDP total
  (paper: 5.66x; the conv-layer EDP spread covers the 5.7-7.5x headline).
* Fig. 9 — capacity sweep endpoints (1x @ 12 MB -> 6.85x @ 128 MB;
  paper: 6.8x).
* Fig. 10c / Obs. 8 / Fig. 10d — single-knob sweep endpoints.
* Per-layer simulator breakdowns (used CSs, compute and writeback
  cycles, dynamic and leakage energy) pinned *bit-exactly* as
  ``float.hex`` for ResNet-18, MobileNet-v1 (grouped layers with row
  packing) and a batched 4-bit ``tiny_encoder`` on a re-optimized
  baseline, 2D and M3D.
"""

from __future__ import annotations

import pytest

from repro.experiments.casestudy import run_case_study
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10c, run_fig10d, run_obs8
from repro.experiments.table1 import run_table1
from repro.perf.simulator import simulate
from repro.spec.design import DesignSpec
from repro.spec.resolve import resolve

#: Relative tolerance for frozen floats (pure arithmetic, no solver noise).
REL = 1e-9

#: Frozen Table I rows: name -> (speedup, energy benefit, EDP benefit).
GOLDEN_TABLE1: dict[str, tuple[float, float, float]] = {
    "CONV1+POOL": (3.295302013422819, 0.9875476477813677, 3.25426775208491),
    "L1.0 CONV1": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L1.0 CONV2": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L1.1 CONV1": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L1.1 CONV2": (3.7027300303336705, 1.0011373113593975, 3.7069411872579514),
    "L2.0 DS": (3.3959731543624163, 0.9728216002786556, 3.3036760385301998),
    "L2.0 CONV1": (6.768402154398563, 1.009478447009852, 6.832556095560397),
    "L2.0 CONV2": (7.324803149606299, 1.0119616394740465, 7.41241980410025),
    "L2.1 CONV1": (7.324803149606299, 1.0119616394740465, 7.41241980410025),
    "L2.1 CONV2": (7.324803149606299, 1.0119616394740465, 7.41241980410025),
    "L3.0 DS": (4.764150943396227, 0.9945446081556532, 4.7381606331943855),
    "L3.0 CONV1": (7.389679715302491, 1.0132540756293351, 7.487623089125674),
    "L3.0 CONV2": (7.68093023255814, 1.01447112356004, 7.792081923009536),
    "L3.1 CONV1": (7.68093023255814, 1.01447112356004, 7.792081923009536),
    "L3.1 CONV2": (7.68093023255814, 1.01447112356004, 7.792081923009536),
    "L4.0 DS": (6.374407582938389, 1.0101852100849926, 6.439332263337986),
    "L4.0 CONV1": (7.772395487723955, 1.0188422135501622, 7.918844623299967),
    "L4.0 CONV2": (7.884317032040472, 1.0193931600571517, 8.037218854184161),
    "L4.1 CONV1": (7.884317032040472, 1.0193931600571517, 8.037218854184161),
    "L4.1 CONV2": (7.884317032040472, 1.0193931600571517, 8.037218854184161),
    "Total": (5.61835247129306, 1.0097090766661299, 5.672901486174185),
}


#: Spec overrides of each per-layer golden case.
LAYER_CASES: dict[str, dict] = {
    "resnet18": {},
    "mobilenet_v1": {"workload.network": "mobilenet_v1"},
    "tiny_encoder": {"workload.network": "tiny_encoder", "workload.batch": 4,
                     "arch.precision_bits": 4, "arch.baseline": "reoptimized"},
}

#: Frozen per-layer simulator breakdowns, bit-exact: case -> design ->
#: rows of (layer, used_cs, float.hex of compute cycles, writeback
#: cycles, dynamic energy, leakage energy).
GOLDEN_LAYERS: dict[str, dict[str, tuple[tuple, ...]]] = {
    "resnet18": {
        "2d": (
            ("CONV1", 1, "0x1.57e0000000000p+19", "0x1.8800000000000p+15",
             "0x1.010bb15e5137ap-12", "0x1.25c298b3c4cf3p-17"),
            ("POOL", 1, "0x1.b900000000000p+16", "0x1.8800000000000p+13",
             "0x1.3e6856a84e387p-18", "0x1.86bff5139b603p-20"),
            ("L1.0 CONV1", 1, "0x1.bd80000000000p+18", "0x1.8800000000000p+13",
             "0x1.f20aaa27c726fp-13", "0x1.6d0838ab436f7p-18"),
            ("L1.0 CONV2", 1, "0x1.bd80000000000p+18", "0x1.8800000000000p+13",
             "0x1.f20aaa27c726fp-13", "0x1.6d0838ab436f7p-18"),
            ("L1.1 CONV1", 1, "0x1.bd80000000000p+18", "0x1.8800000000000p+13",
             "0x1.f20aaa27c726fp-13", "0x1.6d0838ab436f7p-18"),
            ("L1.1 CONV2", 1, "0x1.bd80000000000p+18", "0x1.8800000000000p+13",
             "0x1.f20aaa27c726fp-13", "0x1.6d0838ab436f7p-18"),
            ("L2.0 DS", 1, "0x1.9800000000000p+14", "0x1.8800000000000p+12",
             "0x1.cdce4e1266146p-17", "0x1.93824e94c5055p-22"),
            ("L2.0 CONV1", 1, "0x1.cb00000000000p+17", "0x1.8800000000000p+12",
             "0x1.f5c0a48906d65p-14", "0x1.77cc34303e92cp-19"),
            ("L2.0 CONV2", 1, "0x1.cb00000000000p+18", "0x1.8800000000000p+12",
             "0x1.f4a42d544c164p-13", "0x1.72e9cdeccca18p-18"),
            ("L2.1 CONV1", 1, "0x1.cb00000000000p+18", "0x1.8800000000000p+12",
             "0x1.f4a42d544c164p-13", "0x1.72e9cdeccca18p-18"),
            ("L2.1 CONV2", 1, "0x1.cb00000000000p+18", "0x1.8800000000000p+12",
             "0x1.f4a42d544c164p-13", "0x1.72e9cdeccca18p-18"),
            ("L3.0 DS", 1, "0x1.c800000000000p+14", "0x1.8800000000000p+11",
             "0x1.d21c478d7283bp-17", "0x1.92b628fcb26b0p-22"),
            ("L3.0 CONV1", 1, "0x1.0080000000000p+18", "0x1.8800000000000p+11",
             "0x1.01be0b6ca569fp-13", "0x1.9df9bc00b92ecp-19"),
            ("L3.0 CONV2", 1, "0x1.0080000000000p+19", "0x1.8800000000000p+11",
             "0x1.0176ed9f76b9ep-12", "0x1.9b8888df00362p-18"),
            ("L3.1 CONV1", 1, "0x1.0080000000000p+19", "0x1.8800000000000p+11",
             "0x1.0176ed9f76b9ep-12", "0x1.9b8888df00362p-18"),
            ("L3.1 CONV2", 1, "0x1.0080000000000p+19", "0x1.8800000000000p+11",
             "0x1.0176ed9f76b9ep-12", "0x1.9b8888df00362p-18"),
            ("L4.0 DS", 1, "0x1.4400000000000p+15", "0x1.8800000000000p+10",
             "0x1.01389b9f08a0dp-16", "0x1.0c2460fe6f31bp-21"),
            ("L4.0 CONV1", 1, "0x1.6c80000000000p+18", "0x1.8800000000000p+10",
             "0x1.1f26c0a97434ep-13", "0x1.23e4209759358p-18"),
            ("L4.0 CONV2", 1, "0x1.6c80000000000p+19", "0x1.8800000000000p+10",
             "0x1.1f0331c2dcdcep-12", "0x1.2347d3ceeaf75p-17"),
            ("L4.1 CONV1", 1, "0x1.6c80000000000p+19", "0x1.8800000000000p+10",
             "0x1.1f0331c2dcdcep-12", "0x1.2347d3ceeaf75p-17"),
            ("L4.1 CONV2", 1, "0x1.6c80000000000p+19", "0x1.8800000000000p+10",
             "0x1.1f0331c2dcdcep-12", "0x1.2347d3ceeaf75p-17"),
            ("FC", 1, "0x1.03e0000000000p+16", "0x1.f400000000000p+5",
             "0x1.361a1d2987ec0p-17", "0x1.9edd01db05e49p-21"),
        ),
        "m3d": (
            ("CONV1", 4, "0x1.57e0000000000p+17", "0x1.8800000000000p+15",
             "0x1.04d126ea7d75dp-12", "0x1.ff6ee6d4ae254p-18"),
            ("POOL", 4, "0x1.b900000000000p+14", "0x1.8800000000000p+13",
             "0x1.7abfaf6b121b4p-18", "0x1.70a312dd3a19dp-20"),
            ("L1.0 CONV1", 4, "0x1.bd80000000000p+16", "0x1.8800000000000p+13",
             "0x1.f3ed64eddd460p-13", "0x1.1e2bce244d748p-18"),
            ("L1.0 CONV2", 4, "0x1.bd80000000000p+16", "0x1.8800000000000p+13",
             "0x1.f3ed64eddd460p-13", "0x1.1e2bce244d748p-18"),
            ("L1.1 CONV1", 4, "0x1.bd80000000000p+16", "0x1.8800000000000p+13",
             "0x1.f3ed64eddd460p-13", "0x1.1e2bce244d748p-18"),
            ("L1.1 CONV2", 4, "0x1.bd80000000000p+16", "0x1.8800000000000p+13",
             "0x1.f3ed64eddd460p-13", "0x1.1e2bce244d748p-18"),
            ("L2.0 DS", 8, "0x1.9800000000000p+11", "0x1.8800000000000p+12",
             "0x1.dce42443170d1p-17", "0x1.58e8f44ffe190p-22"),
            ("L2.0 CONV1", 8, "0x1.cb00000000000p+14", "0x1.8800000000000p+12",
             "0x1.f7a35f4f1cf56p-14", "0x1.4257222d8cd38p-20"),
            ("L2.0 CONV2", 8, "0x1.cb00000000000p+15", "0x1.8800000000000p+12",
             "0x1.f5958ab75725dp-13", "0x1.25fbd1f525e53p-19"),
            ("L2.1 CONV1", 8, "0x1.cb00000000000p+15", "0x1.8800000000000p+12",
             "0x1.f5958ab75725dp-13", "0x1.25fbd1f525e53p-19"),
            ("L2.1 CONV2", 8, "0x1.cb00000000000p+15", "0x1.8800000000000p+12",
             "0x1.f5958ab75725dp-13", "0x1.25fbd1f525e53p-19"),
            ("L3.0 DS", 8, "0x1.c800000000000p+11", "0x1.8800000000000p+11",
             "0x1.d9a732a5cb000p-17", "0x1.eabe90dfc6504p-23"),
            ("L3.0 CONV1", 8, "0x1.0080000000000p+15", "0x1.8800000000000p+11",
             "0x1.0236ba1e2af1bp-13", "0x1.453be13887a7ep-20"),
            ("L3.0 CONV2", 8, "0x1.0080000000000p+16", "0x1.8800000000000p+11",
             "0x1.01b344f8397ddp-12", "0x1.370e391c5430cp-19"),
            ("L3.1 CONV1", 8, "0x1.0080000000000p+16", "0x1.8800000000000p+11",
             "0x1.01b344f8397ddp-12", "0x1.370e391c5430cp-19"),
            ("L3.1 CONV2", 8, "0x1.0080000000000p+16", "0x1.8800000000000p+11",
             "0x1.01b344f8397ddp-12", "0x1.370e391c5430cp-19"),
            ("L4.0 DS", 8, "0x1.4400000000000p+12", "0x1.8800000000000p+10",
             "0x1.031b56651ebffp-16", "0x1.e86df80a30d98p-23"),
            ("L4.0 CONV1", 8, "0x1.6c80000000000p+15", "0x1.8800000000000p+10",
             "0x1.1f63180236f8dp-13", "0x1.b40e7629db3b9p-20"),
            ("L4.0 CONV2", 8, "0x1.6c80000000000p+16", "0x1.8800000000000p+10",
             "0x1.1f215d6f3e3edp-12", "0x1.acf7a21bc17ffp-19"),
            ("L4.1 CONV1", 8, "0x1.6c80000000000p+16", "0x1.8800000000000p+10",
             "0x1.1f215d6f3e3edp-12", "0x1.acf7a21bc17ffp-19"),
            ("L4.1 CONV2", 8, "0x1.6c80000000000p+16", "0x1.8800000000000p+10",
             "0x1.1f215d6f3e3edp-12", "0x1.acf7a21bc17ffp-19"),
            ("FC", 8, "0x1.0800000000000p+13", "0x1.f400000000000p+5",
             "0x1.364098c952807p-17", "0x1.33d18361a52cbp-22"),
        ),
    },
    "mobilenet_v1": {
        "2d": (
            ("CONV1", 1, "0x1.26c0000000000p+16", "0x1.8800000000000p+14",
             "0x1.96ba1473d94d6p-16", "0x1.3932ad0e8a40cp-20"),
            ("B1.DW", 1, "0x1.26c0000000000p+20", "0x1.8800000000000p+14",
             "0x1.3e8febc1b0dfcp-17", "0x1.dfdd5e35ba3d6p-17"),
            ("B1.PW", 1, "0x1.8900000000000p+16", "0x1.8800000000000p+15",
             "0x1.db763963cb522p-15", "0x1.d5b27ee2cd0ddp-20"),
            ("B2.DW", 1, "0x1.2900000000000p+19", "0x1.8800000000000p+13",
             "0x1.3f06ab0dd8d5ap-18", "0x1.e37407620df3cp-18"),
            ("B2.PW", 1, "0x1.8c00000000000p+16", "0x1.8800000000000p+14",
             "0x1.ca81e14a2d788p-15", "0x1.89f08b73e5c98p-20"),
            ("B3.DW", 1, "0x1.2900000000000p+20", "0x1.8800000000000p+14",
             "0x1.3f06ab0dd8d5ap-17", "0x1.e37407620df3cp-17"),
            ("B3.PW", 1, "0x1.8c00000000000p+17", "0x1.8800000000000p+14",
             "0x1.c19e27a457784p-14", "0x1.62dd5958563fep-19"),
            ("B4.DW", 1, "0x1.3200000000000p+18", "0x1.8800000000000p+12",
             "0x1.40e1a83e78ad5p-19", "0x1.f1ceac135ccd9p-19"),
            ("B4.PW", 1, "0x1.9800000000000p+16", "0x1.8800000000000p+13",
             "0x1.c4ea946c90142p-15", "0x1.6c6f1c79357bbp-20"),
            ("B5.DW", 1, "0x1.3200000000000p+19", "0x1.8800000000000p+13",
             "0x1.40e1a83e78ad5p-18", "0x1.f1ceac135ccd9p-18"),
            ("B5.PW", 1, "0x1.9800000000000p+17", "0x1.8800000000000p+13",
             "0x1.c078b799a513fp-14", "0x1.58e5836b6db6ep-19"),
            ("B6.DW", 1, "0x1.5600000000000p+17", "0x1.8800000000000p+11",
             "0x1.484d9d00f80c1p-20", "0x1.159c9f6c4c1a3p-19"),
            ("B6.PW", 1, "0x1.c800000000000p+16", "0x1.8800000000000p+12",
             "0x1.cdaa6aba87838p-15", "0x1.7f2c8feeeaa63p-20"),
            ("B7.DW", 1, "0x1.5600000000000p+18", "0x1.8800000000000p+12",
             "0x1.484d9d00f80c1p-19", "0x1.159c9f6c4c1a3p-18"),
            ("B7.PW", 1, "0x1.c800000000000p+17", "0x1.8800000000000p+12",
             "0x1.cb717c5112037p-14", "0x1.7567c36806c3cp-19"),
            ("B8.DW", 1, "0x1.5600000000000p+18", "0x1.8800000000000p+12",
             "0x1.484d9d00f80c1p-19", "0x1.159c9f6c4c1a3p-18"),
            ("B8.PW", 1, "0x1.c800000000000p+17", "0x1.8800000000000p+12",
             "0x1.cb717c5112037p-14", "0x1.7567c36806c3cp-19"),
            ("B9.DW", 1, "0x1.5600000000000p+18", "0x1.8800000000000p+12",
             "0x1.484d9d00f80c1p-19", "0x1.159c9f6c4c1a3p-18"),
            ("B9.PW", 1, "0x1.c800000000000p+17", "0x1.8800000000000p+12",
             "0x1.cb717c5112037p-14", "0x1.7567c36806c3cp-19"),
            ("B10.DW", 1, "0x1.5600000000000p+18", "0x1.8800000000000p+12",
             "0x1.484d9d00f80c1p-19", "0x1.159c9f6c4c1a3p-18"),
            ("B10.PW", 1, "0x1.c800000000000p+17", "0x1.8800000000000p+12",
             "0x1.cb717c5112037p-14", "0x1.7567c36806c3cp-19"),
            ("B11.DW", 1, "0x1.5600000000000p+18", "0x1.8800000000000p+12",
             "0x1.484d9d00f80c1p-19", "0x1.159c9f6c4c1a3p-18"),
            ("B11.PW", 1, "0x1.c800000000000p+17", "0x1.8800000000000p+12",
             "0x1.cb717c5112037p-14", "0x1.7567c36806c3cp-19"),
            ("B12.DW", 1, "0x1.e600000000000p+16", "0x1.8800000000000p+10",
             "0x1.65fd700af5871p-21", "0x1.8871c4f6c2e82p-20"),
            ("B12.PW", 1, "0x1.4400000000000p+17", "0x1.8800000000000p+11",
             "0x1.001c246a4de0dp-14", "0x1.0741fabafd408p-19"),
            ("B13.DW", 1, "0x1.e600000000000p+17", "0x1.8800000000000p+11",
             "0x1.65fd700af5871p-20", "0x1.8871c4f6c2e82p-19"),
            ("B13.PW", 1, "0x1.4400000000000p+18", "0x1.8800000000000p+11",
             "0x1.ff1bd19fe1019p-14", "0x1.04d0c7994447ep-18"),
            ("GAP", 1, "0x1.8800000000000p+11", "0x1.0000000000000p+6",
             "0x1.ced9b4c944ce4p-24", "0x1.3efabd9d111f8p-25"),
            ("FC", 1, "0x1.03e0000000000p+17", "0x1.f400000000000p+5",
             "0x1.36036fbda766dp-16", "0x1.9eab2aad6559ep-20"),
        ),
        "m3d": (
            ("CONV1", 2, "0x1.26c0000000000p+15", "0x1.8800000000000p+14",
             "0x1.b4e5c0d53b3edp-16", "0x1.1c003edc11553p-19"),
            ("B1.DW", 8, "0x1.26c0000000000p+17", "0x1.8800000000000p+14",
             "0x1.7ae7448474c29p-17", "0x1.8ddc9c65b914ap-18"),
            ("B1.PW", 4, "0x1.8900000000000p+14", "0x1.8800000000000p+15",
             "0x1.f9a1e5c52d439p-15", "0x1.5491d5bf85da6p-19"),
            ("B2.DW", 8, "0x1.2900000000000p+16", "0x1.8800000000000p+13",
             "0x1.7b5e03d09cb88p-18", "0x1.90774856013a3p-19"),
            ("B2.PW", 8, "0x1.8c00000000000p+13", "0x1.8800000000000p+14",
             "0x1.d997b77ade713p-15", "0x1.55700f0f9de6ep-20"),
            ("B3.DW", 8, "0x1.2900000000000p+17", "0x1.8800000000000p+14",
             "0x1.7b5e03d09cb88p-17", "0x1.90774856013a3p-18"),
            ("B3.PW", 8, "0x1.8c00000000000p+14", "0x1.8800000000000p+14",
             "0x1.c92912bcaff49p-14", "0x1.c8059c5c045b7p-20"),
            ("B4.DW", 8, "0x1.3200000000000p+15", "0x1.8800000000000p+12",
             "0x1.7d3901013c903p-19", "0x1.9ae1f81721d07p-20"),
            ("B4.PW", 8, "0x1.9800000000000p+13", "0x1.8800000000000p+13",
             "0x1.cc757f84e8907p-15", "0x1.cef766dcc4bf9p-21"),
            ("B5.DW", 8, "0x1.3200000000000p+16", "0x1.8800000000000p+13",
             "0x1.7d3901013c903p-18", "0x1.9ae1f81721d07p-19"),
            ("B5.PW", 8, "0x1.9800000000000p+14", "0x1.8800000000000p+13",
             "0x1.c43e2d25d1522p-14", "0x1.5d8a25fb29067p-20"),
            ("B6.DW", 8, "0x1.5600000000000p+14", "0x1.8800000000000p+11",
             "0x1.84a4f5c3bbeefp-20", "0x1.c48cb71ba4295p-21"),
            ("B6.PW", 8, "0x1.c800000000000p+13", "0x1.8800000000000p+12",
             "0x1.d16fe046b3c1bp-15", "0x1.79514ffe2a970p-21"),
            ("B7.DW", 8, "0x1.5600000000000p+15", "0x1.8800000000000p+12",
             "0x1.84a4f5c3bbeefp-19", "0x1.c48cb71ba4295p-20"),
            ("B7.PW", 8, "0x1.c800000000000p+14", "0x1.8800000000000p+12",
             "0x1.cd54371728228p-14", "0x1.409aaf8d5cba7p-20"),
            ("B8.DW", 8, "0x1.5600000000000p+15", "0x1.8800000000000p+12",
             "0x1.84a4f5c3bbeefp-19", "0x1.c48cb71ba4295p-20"),
            ("B8.PW", 8, "0x1.c800000000000p+14", "0x1.8800000000000p+12",
             "0x1.cd54371728228p-14", "0x1.409aaf8d5cba7p-20"),
            ("B9.DW", 8, "0x1.5600000000000p+15", "0x1.8800000000000p+12",
             "0x1.84a4f5c3bbeefp-19", "0x1.c48cb71ba4295p-20"),
            ("B9.PW", 8, "0x1.c800000000000p+14", "0x1.8800000000000p+12",
             "0x1.cd54371728228p-14", "0x1.409aaf8d5cba7p-20"),
            ("B10.DW", 8, "0x1.5600000000000p+15", "0x1.8800000000000p+12",
             "0x1.84a4f5c3bbeefp-19", "0x1.c48cb71ba4295p-20"),
            ("B10.PW", 8, "0x1.c800000000000p+14", "0x1.8800000000000p+12",
             "0x1.cd54371728228p-14", "0x1.409aaf8d5cba7p-20"),
            ("B11.DW", 8, "0x1.5600000000000p+15", "0x1.8800000000000p+12",
             "0x1.84a4f5c3bbeefp-19", "0x1.c48cb71ba4295p-20"),
            ("B11.PW", 8, "0x1.c800000000000p+14", "0x1.8800000000000p+12",
             "0x1.cd54371728228p-14", "0x1.409aaf8d5cba7p-20"),
            ("B12.DW", 8, "0x1.e600000000000p+13", "0x1.8800000000000p+10",
             "0x1.a254c8cdb969fp-21", "0x1.359bd996d6c69p-21"),
            ("B12.PW", 8, "0x1.4400000000000p+14", "0x1.8800000000000p+11",
             "0x1.010d81cd58f06p-14", "0x1.afb7579962fcfp-21"),
            ("B13.DW", 8, "0x1.e600000000000p+14", "0x1.8800000000000p+11",
             "0x1.a254c8cdb969fp-20", "0x1.359bd996d6c69p-20"),
            ("B13.PW", 8, "0x1.4400000000000p+15", "0x1.8800000000000p+11",
             "0x1.0006978176089p-13", "0x1.935c0760fc0eap-20"),
            ("GAP", 8, "0x1.8800000000000p+8", "0x1.0000000000000p+6",
             "0x1.e28dbcdf11d47p-24", "0x1.07e40f1c8eddep-26"),
            ("FC", 8, "0x1.0800000000000p+14", "0x1.f400000000000p+5",
             "0x1.3616ad8d8cb10p-16", "0x1.32b028c15b31cp-21"),
        ),
    },
    "tiny_encoder": {
        "2d": (
            ("L0.Q", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L0.K", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L0.V", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L0.O", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L0.FFN1", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+8",
             "0x1.1b3ec4ccd40cbp-16", "0x1.cc20bbc1edd20p-20"),
            ("L0.FFN2", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+6",
             "0x1.1af91a8bab8a1p-16", "0x1.cb879f8fdfde3p-20"),
            ("L1.Q", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L1.K", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L1.V", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L1.O", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L1.FFN1", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+8",
             "0x1.1b3ec4ccd40cbp-16", "0x1.cc20bbc1edd20p-20"),
            ("L1.FFN2", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+6",
             "0x1.1af91a8bab8a1p-16", "0x1.cb879f8fdfde3p-20"),
            ("L2.Q", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L2.K", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L2.V", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L2.O", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L2.FFN1", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+8",
             "0x1.1b3ec4ccd40cbp-16", "0x1.cc20bbc1edd20p-20"),
            ("L2.FFN2", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+6",
             "0x1.1af91a8bab8a1p-16", "0x1.cb879f8fdfde3p-20"),
            ("L3.Q", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L3.K", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L3.V", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L3.O", 1, "0x1.2000000000000p+15", "0x1.0000000000000p+6",
             "0x1.1b3ec4ccd40cbp-18", "0x1.cc20bbc1edd20p-22"),
            ("L3.FFN1", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+8",
             "0x1.1b3ec4ccd40cbp-16", "0x1.cc20bbc1edd20p-20"),
            ("L3.FFN2", 1, "0x1.2000000000000p+17", "0x1.0000000000000p+6",
             "0x1.1af91a8bab8a1p-16", "0x1.cb879f8fdfde3p-20"),
        ),
        "m3d": (
            ("L0.Q", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L0.K", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L0.V", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L0.O", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L0.FFN1", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+8",
             "0x1.1b8d94ed2b40cp-16", "0x1.51f729cf3db4dp-21"),
            ("L0.FFN2", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+6",
             "0x1.1b0cce93c1571p-16", "0x1.4e7e448edd82cp-21"),
            ("L1.Q", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L1.K", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L1.V", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L1.O", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L1.FFN1", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+8",
             "0x1.1b8d94ed2b40cp-16", "0x1.51f729cf3db4dp-21"),
            ("L1.FFN2", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+6",
             "0x1.1b0cce93c1571p-16", "0x1.4e7e448edd82cp-21"),
            ("L2.Q", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L2.K", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L2.V", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L2.O", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L2.FFN1", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+8",
             "0x1.1b8d94ed2b40cp-16", "0x1.51f729cf3db4dp-21"),
            ("L2.FFN2", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+6",
             "0x1.1b0cce93c1571p-16", "0x1.4e7e448edd82cp-21"),
            ("L3.Q", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L3.K", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L3.V", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L3.O", 8, "0x1.2000000000000p+12", "0x1.0000000000000p+6",
             "0x1.1b8d94ed2b40cp-18", "0x1.51f729cf3db4dp-23"),
            ("L3.FFN1", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+8",
             "0x1.1b8d94ed2b40cp-16", "0x1.51f729cf3db4dp-21"),
            ("L3.FFN2", 8, "0x1.2000000000000p+14", "0x1.0000000000000p+6",
             "0x1.1b0cce93c1571p-16", "0x1.4e7e448edd82cp-21"),
        ),
    },
}


@pytest.fixture(scope="module")
def case_study(pdk):
    return run_case_study(pdk)


@pytest.fixture(scope="module")
def table1_rows(pdk):
    return run_table1(pdk)


class TestFig2CaseStudy:
    def test_cs_counts(self, case_study):
        assert case_study.baseline.design.n_cs == 1
        assert case_study.m3d.design.n_cs == 8

    def test_iso_constraints(self, case_study):
        assert case_study.iso_footprint
        assert case_study.iso_capacity

    def test_footprint(self, case_study):
        assert case_study.baseline.footprint == pytest.approx(
            0.0004817637168108001, rel=REL)

    def test_obs2_power(self, case_study):
        assert case_study.peak_density_ratio == pytest.approx(
            1.0012171699435626, rel=REL)
        assert case_study.upper_tier_fraction == pytest.approx(
            0.006215085526519188, rel=REL)
        # Paper Obs. 2 bounds: <1% upper-tier power, ~+1% peak density.
        assert case_study.upper_tier_fraction < 0.01
        assert 1.0 < case_study.peak_density_ratio < 1.02


class TestTable1:
    def test_row_names_match_golden(self, table1_rows):
        assert [row.name for row in table1_rows] == list(GOLDEN_TABLE1)

    @pytest.mark.parametrize("name", list(GOLDEN_TABLE1))
    def test_row_values(self, table1_rows, name):
        row = next(r for r in table1_rows if r.name == name)
        speedup, energy, edp = GOLDEN_TABLE1[name]
        assert row.speedup == pytest.approx(speedup, rel=REL)
        assert row.energy_benefit == pytest.approx(energy, rel=REL)
        assert row.edp_benefit == pytest.approx(edp, rel=REL)

    def test_total_matches_paper_headline(self, table1_rows):
        # Paper Table I total: 5.64x / 0.99x / 5.66x; ours lands within 2%.
        total = table1_rows[-1]
        assert total.speedup == pytest.approx(5.64, rel=0.02)
        assert total.edp_benefit == pytest.approx(5.66, rel=0.02)

    def test_stage4_conv_spread_covers_headline_range(self, table1_rows):
        # The 5.7-7.5x headline range of conv-layer EDP benefits.
        edps = [r.edp_benefit for r in table1_rows
                if r.name.endswith(("CONV1", "CONV2")) and r.name != "CONV1+POOL"]
        assert min(edps) > 3.0
        assert max(edps) == pytest.approx(8.037218854184161, rel=REL)


class TestFig9Endpoints:
    def test_sweep(self, pdk):
        points = run_fig9(pdk)
        first, last = points[0], points[-1]
        assert (first.capacity_bits, first.n_cs) == (100663296, 1)
        assert first.speedup == pytest.approx(1.0, rel=REL)
        assert first.edp_benefit == pytest.approx(1.0, rel=REL)
        assert (last.capacity_bits, last.n_cs) == (1073741824, 16)
        assert last.speedup == pytest.approx(6.849705735189993, rel=REL)
        assert last.edp_benefit == pytest.approx(6.852184823596777, rel=REL)
        # Obs. 6: the benefit grows monotonically with capacity.
        edps = [p.edp_benefit for p in points]
        assert edps == sorted(edps)


class TestFig10Endpoints:
    def test_fig10c_fet_width(self, pdk):
        results = run_fig10c(pdk)
        first, last = results[0], results[-1]
        assert (first.delta, first.n_cs_2d, first.n_cs_m3d) == (1.0, 1, 8)
        assert first.speedup == pytest.approx(5.630007688198693, rel=REL)
        assert first.edp_benefit == pytest.approx(5.685221320948279, rel=REL)
        assert (last.delta, last.n_cs_2d, last.n_cs_m3d) == (3.0, 12, 20)
        assert last.edp_benefit == pytest.approx(1.1859212568861623, rel=REL)

    def test_obs8_via_pitch(self, pdk):
        results = run_obs8(pdk)
        first, last = results[0], results[-1]
        assert (first.beta, first.n_cs_2d, first.n_cs_m3d) == (1.0, 1, 8)
        assert first.edp_benefit == pytest.approx(5.685221320948279, rel=REL)
        assert last.beta == 2.0
        assert last.effective_delta == pytest.approx(
            3.7636423405654185, rel=REL)
        assert (last.n_cs_2d, last.n_cs_m3d) == (18, 26)
        assert last.edp_benefit == pytest.approx(1.0987762235678598, rel=REL)

    def test_fig10d_tier_pairs(self, pdk):
        result = run_fig10d(pdk)
        net_first = result.network_sweep[0]
        net_last = result.network_sweep[-1]
        assert (net_first.pairs, net_first.n_cs) == (1, 8)
        assert net_first.edp_benefit == pytest.approx(
            5.685221320948279, rel=REL)
        assert net_first.temperature_rise == pytest.approx(
            0.027120710783051706, rel=REL)
        assert (net_last.pairs, net_last.n_cs) == (6, 48)
        assert net_last.edp_benefit == pytest.approx(
            7.016232429737267, rel=REL)
        layer_last = result.parallel_layer_sweep[-1]
        assert layer_last.edp_benefit == pytest.approx(
            30.473399685570147, rel=REL)


class TestPerLayerBitExact:
    @pytest.mark.parametrize("design", ["2d", "m3d"])
    @pytest.mark.parametrize("case", list(LAYER_CASES))
    def test_layer_breakdown(self, case, design):
        spec = DesignSpec().updated(LAYER_CASES[case])
        point = resolve(spec)
        chosen = point.baseline if design == "2d" else point.m3d
        report = simulate(chosen, point.network, point.pdk,
                          batch=spec.workload.batch)
        rows = tuple(
            (item.layer.name, item.used_cs,
             float(item.compute_cycles).hex(),
             float(item.writeback_cycles).hex(),
             float(item.dynamic_energy).hex(),
             float(item.leakage_energy).hex())
            for item in report.layers)
        assert rows == GOLDEN_LAYERS[case][design]
