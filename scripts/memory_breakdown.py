#!/usr/bin/env python3
"""Where the memory of a TD step goes, at a preset's shape.

    PYTHONPATH=src python3 scripts/memory_breakdown.py [--preset paper.env]
        [--steps 4] [--fill 16384] [--seed 0]

Fills a replay with ``--fill`` random-policy transitions of rl-scratch at
capacity 32, with the trainer's warm-start loop and seed roles, then runs
``--steps`` ``td_loss`` + ``Adam.step`` steps at the preset's batch size and
precision.  It prints the network family's workspace arrays, MiB per key,
and splits the process RSS into the workspaces' memory maps, the heap,
the other anonymous maps (where BLAS keeps its packing buffers) and
file-backed maps; beside it, the median time of a step, so that one run
shows both sides of a trade of memory for time.  The RSS split only
reads ``/proc/self/smaps`` and ``/proc/self/pagemap``.
"""
from __future__ import annotations

import argparse
import mmap
import resource
import statistics
import time

import numpy as np

from roommem import configio, nn, trainer
from roommem.configio import agent_capacities
from roommem.memory import N_ACTIONS
from roommem.qnet import BRANCHES, QNetwork
from roommem.seeding import ROLE_PARAMS, ROLE_REPLAY, ROLE_WARM_START, derive_rng, derive_seed

MiB = 1 << 20


def fill(cfg, vocab, replay: trainer.ReplayBuffer, n: int, seed: int) -> None:
    """``train``'s random-policy warm start, until the replay holds ``n``."""
    rng = derive_rng(seed, ROLE_WARM_START)

    def warm_select(state, enc):
        return int(rng.integers(N_ACTIONS))

    episode = 0
    while len(replay) < n:
        trainer._collect_episode(cfg.env, derive_seed(seed, ROLE_WARM_START, episode), "scratch",
                                 agent_capacities("rl-scratch", 32), vocab, warm_select, replay,
                                 stop_size=n)
        episode += 1


def workspace_arrays(net: QNetwork, optimizer: nn.Adam) -> dict:
    """(owner, key) -> flat array of every workspace of the family and the optimizer."""
    buffers = net._buffers
    owners = {**buffers.work, "scratch": buffers.scratch, "adam": optimizer._work}
    return {(owner, key): flat for owner, work in owners.items()
            for key, flat in work._flat.items()}


def resident_bytes(ranges) -> int:
    """Resident bytes of the pages that the (address, length) ranges touch."""
    page = mmap.PAGESIZE
    total = 0
    with open("/proc/self/pagemap", "rb") as fh:
        for addr, length in ranges:
            first, end = addr // page, -(-(addr + length) // page)
            fh.seek(first * 8)
            entries = np.frombuffer(fh.read((end - first) * 8), dtype=np.uint64)
            total += int(np.count_nonzero(entries >> np.uint64(63))) * page
    return total


def rss_split(workspace_ranges) -> dict:
    """The process RSS, bytes, by kind of mapping."""
    out = {"heap": 0, "anonymous": 0, "file": 0}
    kind = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if "-" in fields[0] and not fields[0].endswith(":"):
                name = fields[5] if len(fields) > 5 else ""
                kind = ("heap" if name == "[heap]" else "file" if name.startswith("/")
                        else "anonymous")
            elif fields[0] == "Rss:":
                out[kind] += int(fields[1]) * 1024
    ws = resident_bytes(workspace_ranges)
    out["anonymous"] -= ws   # the workspaces are private anonymous maps
    return {"workspace maps": ws, **out}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--preset", default="paper.env")
    ap.add_argument("--steps", type=int, default=4)
    ap.add_argument("--fill", type=int, default=16384)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    cfg = configio.load_preset(args.preset)
    tc = cfg.train
    vocab, _ = trainer.build_vocabulary(cfg.env)
    replay = trainer.ReplayBuffer(tc.replay_size, derive_rng(args.seed, ROLE_REPLAY))
    fill(cfg, vocab, replay, args.fill, args.seed)
    online = QNetwork.create(vocab, derive_seed(args.seed, ROLE_PARAMS), d_emb=tc.d_emb,
                             hidden=tc.hidden, n_layers=tc.n_layers, dtype=tc.dtype)
    target = online._gradless(writeable=True)   # as train's
    optimizer = nn.Adam(online.parameters(), lr=tc.lr)
    seconds = []
    for _ in range(args.steps):
        batch = replay.sample(tc.batch_size)
        start = time.perf_counter()
        loss = trainer.td_loss(batch, online, target, tc.gamma)
        optimizer.step()
        seconds.append(time.perf_counter() - start)
    print(f"{args.preset}: B={tc.batch_size}, fp{tc.precision}, {args.fill} transitions, "
          f"{args.steps} steps, last loss {loss!r}")

    arrays = workspace_arrays(online, optimizer)
    print("\nworkspace arrays, MiB")
    totals: dict = {}
    for (owner, key), flat in arrays.items():
        totals[owner] = totals.get(owner, 0) + flat.nbytes
        print(f"  {owner:<10} {key!s:<14} {flat.nbytes / MiB:8.2f}")
    for owner in (*BRANCHES, "head", "scratch", "adam"):
        print(f"  {owner:<10} {'total':<14} {totals.get(owner, 0) / MiB:8.2f}")
    print(f"  {'all':<10} {'':<14} {sum(totals.values()) / MiB:8.2f}")

    split = rss_split((flat.ctypes.data, flat.nbytes) for flat in arrays.values())
    print("\nprocess RSS, MiB")
    for kind, nbytes in split.items():
        print(f"  {kind:<16} {nbytes / MiB:8.2f}")
    print(f"  {'total':<16} {sum(split.values()) / MiB:8.2f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  {'peak (ru_maxrss)':<16} {peak:8.2f}")
    print(f"\ntd_loss + Adam step, median of {len(seconds)}, ms "
          f"{1000 * statistics.median(seconds):.2f}")


if __name__ == "__main__":
    main()
