"""The benchmark's four workloads.

Each workload draws a pool of inputs from the seed (`generate`), runs the
engine calls of one instance (`execute`, the timed part) and checks the
outcome semantically (`check`, untimed).  Inputs are stored pickled and
every pass unpickles fresh copies.  The pickle keeps only the constructor
fields of every driftlab dataclass and rebuilds it through its
constructor, so state the engine caches on an object (a cached_property
value in its __dict__) during generation or an earlier pass is never
saved with it, and every pass pays to build that state again.

Instances are drawn as the acceptance tests draw them, but each pool is
filled to fixed quotas of atom-count ranges (the *_MIX tables, estimated
by size_mix.py), because an instance's cost follows its atom count.  Two
seeds thus get the same size mix and differ only in the structure within
each range, which keeps the pool's mean cost from moving with the seed.
"""

from __future__ import annotations

import bisect
import dataclasses
import io
import json
import os
import pickle
import random
import shutil

from driftlab import (cli, enlargement, models, oracle, representation, serialize,
                      viability)
from driftlab.rational import Q

KINDS = ("random", "initial", "progressive")
JUMP_CAP = Q(7, 8)
OPEN_END = 10 ** 9

# (upper bound of the atom count, share of draws), and the share of
# support-clean instances per kind, from size_mix.py with 60000 draws.
# MARKET_MIX counts the alive atoms of a single-filtration market;
# ENLARGED_MIX counts the enlarged atoms of gen_random_instance's default
# config, per population and enlargement kind.
MARKET_MIX = ((2, 0.1273), (3, 0.0929), (4, 0.0662), (5, 0.0534), (6, 0.0718),
              (7, 0.0495), (8, 0.0612), (9, 0.0476), (11, 0.0743), (13, 0.0689),
              (15, 0.0588), (17, 0.0477), (20, 0.0584), (25, 0.0612), (27, 0.0175),
              (30, 0.0195), (OPEN_END, 0.0238))
CLEAN_SHARE = {"random": 0.448, "initial": 0.2006, "progressive": 0.6996}
ENLARGED_MIX = {
    "clean": {
        "random": ((2, 0.1431), (3, 0.1343), (4, 0.1094), (5, 0.0753), (6, 0.0689),
                   (7, 0.0601), (8, 0.0662), (9, 0.0407), (11, 0.0955), (12, 0.0512),
                   (13, 0.0305), (16, 0.0682), (17, 0.0116), (19, 0.0202),
                   (OPEN_END, 0.0248)),
        "initial": ((2, 0.2266), (3, 0.0551), (4, 0.2415), (5, 0.0581), (6, 0.0773),
                    (7, 0.0464), (8, 0.0641), (10, 0.0653), (12, 0.09), (14, 0.0257),
                    (15, 0.0182), (17, 0.0115), (OPEN_END, 0.0202)),
        "progressive": ((2, 0.0702), (3, 0.1016), (4, 0.1462), (5, 0.099), (6, 0.063),
                        (7, 0.0673), (8, 0.068), (9, 0.0413), (10, 0.0519),
                        (11, 0.0497), (12, 0.0598), (14, 0.0593), (17, 0.0642),
                        (18, 0.0149), (20, 0.02), (OPEN_END, 0.0236)),
    },
    "failing": {
        "random": ((4, 0.0884), (5, 0.0586), (6, 0.0484), (8, 0.1217), (10, 0.1095),
                   (11, 0.0571), (12, 0.0896), (14, 0.1029), (15, 0.0589),
                   (16, 0.0364), (17, 0.0413), (19, 0.0659), (22, 0.074), (24, 0.0303),
                   (OPEN_END, 0.017)),
        "initial": ((3, 0.0796), (4, 0.0746), (5, 0.0722), (6, 0.0495), (7, 0.0615),
                    (8, 0.0634), (9, 0.0539), (10, 0.0626), (11, 0.068), (12, 0.0742),
                    (13, 0.0455), (14, 0.0487), (16, 0.081), (18, 0.0634),
                    (20, 0.0443), (21, 0.0183), (23, 0.0233), (OPEN_END, 0.016)),
        "progressive": ((8, 0.109), (9, 0.0644), (10, 0.0774), (11, 0.0892),
                        (12, 0.0894), (13, 0.0699), (14, 0.0799), (15, 0.0636),
                        (16, 0.0624), (17, 0.0553), (18, 0.0529), (20, 0.0859),
                        (22, 0.0591), (23, 0.0175), (OPEN_END, 0.0241)),
    },
    "forced": {
        "random": ((3, 0.108), (4, 0.0752), (5, 0.0661), (6, 0.0588), (7, 0.0583),
                   (8, 0.0641), (9, 0.0481), (10, 0.0602), (11, 0.0559), (12, 0.068),
                   (13, 0.0445), (14, 0.0459), (16, 0.0779), (18, 0.0624),
                   (21, 0.0607), (23, 0.0248), (OPEN_END, 0.0211)),
        "initial": ((3, 0.0755), (4, 0.098), (5, 0.072), (6, 0.0583), (7, 0.0633),
                    (8, 0.0612), (9, 0.0532), (10, 0.0616), (11, 0.0677), (12, 0.0708),
                    (13, 0.0437), (14, 0.0458), (15, 0.0439), (17, 0.0626),
                    (20, 0.0692), (21, 0.0168), (22, 0.0113), (OPEN_END, 0.0251)),
        "progressive": ((3, 0.0788), (4, 0.1041), (5, 0.0687), (7, 0.1102),
                        (8, 0.0651), (9, 0.0515), (10, 0.0622), (11, 0.0654),
                        (12, 0.071), (13, 0.0472), (14, 0.0461), (15, 0.0442),
                        (17, 0.0633), (20, 0.0719), (21, 0.0171), (22, 0.0112),
                        (OPEN_END, 0.022)),
    },
}


def _rebuild(cls, fields: dict):
    return cls(**fields)


class _FieldPickler(pickle.Pickler):
    """Pickles each driftlab dataclass as its constructor and init fields."""

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("driftlab.") and dataclasses.is_dataclass(cls):
            return _rebuild, (cls, {f.name: getattr(obj, f.name)
                                    for f in dataclasses.fields(cls) if f.init})
        return NotImplemented


def dumps(obj) -> bytes:
    """`obj` pickled without any state cached on its driftlab objects."""
    buf = io.BytesIO()
    _FieldPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def alive_atoms(filt, horizon) -> int:
    """Atoms of ticks 1..K that the horizon keeps alive: the oracle's LP columns less one."""
    return sum(1 for k in range(1, filt.K + 1) for b in filt.at(k).blocks
               if horizon is None or all(horizon.geq(i, k) for i in b))


def enlarged_atoms(eb) -> int:
    return sum(len(eb.enlarged.at(k).blocks) for k in range(1, eb.enlarged.K + 1))


def _quotas(mix, count: int) -> list:
    """Instances per range: count * share, rounded by largest remainder."""
    exact = [share * count for _, share in mix]
    out = [int(x) for x in exact]
    by_remainder = sorted(range(len(mix)), key=lambda b: out[b] - exact[b])
    for b in by_remainder[:count - sum(out)]:
        out[b] += 1
    return out


def _fill(draw, size_of, mix, count: int) -> list:
    """Draw until every range of the mix holds its quota; sorted by size.

    `size_of` returns None for a draw that the pool cannot use.
    """
    need = _quotas(mix, count)
    uppers = [upper for upper, _ in mix]
    out = []
    while len(out) < count:
        cand = draw()
        size = size_of(cand)
        if size is None:
            continue
        b = bisect.bisect_left(uppers, size)
        if need[b]:
            need[b] -= 1
            out.append((size, len(out), cand))
    return [cand for _, _, cand in sorted(out, key=lambda t: t[:2])]


def _every(share: float, count: int) -> list:
    """`count` flags with round(share * count) true, evenly spaced."""
    return [int((j + 1) * share + 0.5) > int(j * share + 0.5) for j in range(count)]


def market_structure(rng: random.Random, n: int, ticks: int, random_horizon: bool):
    space, filt = models.gen_single_filtration(rng, n, ticks, 3)
    horizon = models.random_stopping_time(rng, space, filt) if random_horizon else None
    return space, filt, horizon


def markets(rng: random.Random, count: int) -> list:
    """Single-filtration markets drawn as in the connector-vs-oracle acceptance test.

    n in 2..12, ticks in 1..4, a random horizon 30% of the time, a viable
    asset 45% of the time, dimension 2 one time in three.  The dimension
    and viability flags are dealt evenly along the size order.
    """
    structures = _fill(
        lambda: market_structure(rng, rng.randint(2, 12), rng.randint(1, 4),
                                 rng.random() < 0.3),
        lambda st: alive_atoms(st[1], st[2]), MARKET_MIX, count)
    out = []
    for j, ((space, filt, horizon), viable) in enumerate(zip(structures,
                                                             _every(0.45, count))):
        dim = 2 if j % 3 == 2 else 1
        if viable:
            S, _, _ = models.random_viable_asset(rng, space, filt, dim=dim)
        else:
            S = models.random_adapted(rng, space, filt, dim=dim)
        out.append((space, filt, S, horizon))
    return out


def enlarged_instances(rng: random.Random, count: int, population: str = "mixed") -> list:
    """gen_random_instance with its default config, kinds in rotation.

    `population` is "clean" (support-clean only: the jump identity
    acceptance test's population), "forced" (forced support failures) or
    "mixed" (clean and failing instances in their natural shares).
    """
    per_kind = []
    for k, kind in enumerate(KINDS):
        want = (count - k + 2) // 3
        if population == "mixed":
            clean = round(CLEAN_SHARE[kind] * want)
            parts = (("clean", clean), ("failing", want - clean))
        else:
            parts = ((population, want),)
        pool = []
        for part, size in parts:
            def draw():
                return models.gen_random_instance(models.GeneratorConfig(
                    seed=rng.randrange(2 ** 31), enlargement_kind=kind,
                    force_condition_failure=part == "forced"))

            def size_of(eb):
                if part != "forced" and (
                        enlargement.check_condition_support(eb).ok != (part == "clean")):
                    return None
                return enlarged_atoms(eb)
            pool += _fill(draw, size_of, ENLARGED_MIX[part][kind], size)
        per_kind.append(pool)
    return [per_kind[j % 3][j // 3] for j in range(count)]


class Workload:
    name = ""
    pool_size = 0

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def generate(self) -> list:
        """The pool, as pickled inputs."""
        return [dumps(item) for item in self.items()]

    def items(self) -> list:
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def check(self, index: int, item, facts):
        """None when the outcome is correct, else a one-line reason."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class EnlargedSweep(Workload):
    """Verdict of each enlarged instance against a connector sweep of >= 20 assets."""

    name = "enlarged-sweep"
    pool_size = 216
    family_size = 20

    def items(self):
        out = []
        for eb in enlarged_instances(self.rng, self.pool_size):
            rep = representation.build_representation(eb.space, eb.base)
            family = models.tilted_component_assets(eb.space, eb.base, rep)
            while len(family) < self.family_size:
                S, _, _ = models.random_viable_asset(self.rng, eb.space, eb.base)
                family.append(S)
            out.append((eb, family))
        return out

    def execute(self, item):
        eb, family = item
        rep = representation.build_representation(eb.space, eb.base)
        report = viability.full_viability_verdict(eb, rep)
        rejected = sum(1 for S in family
                       if not viability.find_structure_connector(
                           eb.space, eb.enlarged, S, eb.horizon).found)
        return report.verdict, report.condition_support, rejected

    def check(self, index, item, facts):
        verdict, support, rejected = facts
        if verdict != (rejected == 0):
            return f"verdict {verdict} but the sweep rejected {rejected} assets"
        if verdict != support:
            return "verdict differs from the child-support condition"
        return None


class OracleCrosscheck(Workload):
    """Connector search against the global LP oracle on single-filtration markets."""

    name = "oracle-crosscheck"
    pool_size = 480

    def items(self):
        return markets(self.rng, self.pool_size)

    def execute(self, item):
        space, filt, S, horizon = item
        search = viability.find_structure_connector(space, filt, S, horizon)
        res = oracle.lp_deflator_oracle(space, filt, S, horizon)
        if search.found:
            Z = viability.deflator_from_connector(space, filt, search.connector, horizon)
            rechecked = oracle.check_deflator(space, filt, S, Z, horizon)
        else:
            rechecked = oracle.verify_no_deflator(space, filt, S, horizon,
                                                  res.certificate)
        return search.found, res.feasible, rechecked

    def check(self, index, item, facts):
        found, feasible, rechecked = facts
        if found != feasible:
            return f"connector search found={found} but oracle feasible={feasible}"
        if not rechecked:
            return "deflator or no-deflator certificate failed its recheck"
        return None


class DriftTransfer(Workload):
    """Factors, connector transfer and jump identity on support-clean instances."""

    name = "drift-transfer"
    pool_size = 432

    def items(self):
        out = []
        for eb in enlarged_instances(self.rng, self.pool_size, "clean"):
            D = models.random_martingale(self.rng, eb.space, eb.base, cap=JUMP_CAP)
            S, D_S, _ = models.random_viable_asset(self.rng, eb.space, eb.base)
            out.append((eb, D, S, D_S))
        return out

    def execute(self, item):
        eb, D, S, D_S = item
        rep = representation.build_representation(eb.space, eb.base)
        factors = enlargement.solve_factors(eb, rep)
        verdict = viability.full_viability_verdict(eb, rep).verdict
        identity = []
        for base_connector in (None, D):
            K, _ = viability.enlarged_connector(eb, rep, factors, base_connector)
            identity.append(viability.jump_identity_check(eb, rep, factors, K,
                                                          base_connector))
        viability.g_connector(eb, rep, factors, S, D_S)
        return verdict, identity

    def check(self, index, item, facts):
        verdict, identity = facts
        if not verdict:
            return "support-clean instance got a false verdict"
        for bad in identity:
            if bad is not None:
                return f"jump identity fails at outcome/tick {bad}"
        return None


class CliReports(Workload):
    """A fixed rotation of in-process CLI requests on prepared input files."""

    name = "cli-reports"
    pool_size = 512
    # one rotation: (command, instance source)
    ROTATION = (("check-viability", "plain"), ("deflator", "market"),
                ("factors", "clean"), ("check-viability", "forced"),
                ("deflator", "market"), ("factors", "clean"),
                ("deflator", "market"), ("verify-theorems", None))
    VERIFY_BATCH = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.first_output: dict = {}  # request index -> report bytes of its first run

    def items(self):
        os.makedirs(self.workdir, exist_ok=True)
        need = {}
        for _, source in self.ROTATION:
            need[source] = need.get(source, 0) + self.pool_size // len(self.ROTATION)
        docs = {
            source: [serialize.instance_to_json(eb)
                     for eb in enlarged_instances(self.rng, need[source], population)]
            for source, population in (("plain", "mixed"), ("clean", "clean"),
                                       ("forced", "forced"))
        }
        docs.update({
            "market": [],
            None: [None] * need[None],
        })
        for space, filt, S, horizon in markets(self.rng, need["market"]):
            doc = serialize.basis_to_json(space, filt)
            doc["asset"] = serialize.process_to_json(S)
            if horizon is not None:
                doc["horizon"] = serialize.horizon_to_json(horizon)
            docs["market"].append(doc)
        out = []
        batches = 0
        for j in range(self.pool_size):
            command, source = self.ROTATION[j % len(self.ROTATION)]
            doc = docs[source].pop()
            output = os.path.join(self.workdir, f"out-{j}.json")
            if doc is None:
                # Fixed battery seeds, whatever the workload seed: a batch's
                # cost swings with the sizes its seeds draw, and these
                # batches set the workload's p95.
                argv = [command, "--seed", str(batches * self.VERIFY_BATCH),
                        "--instances", str(self.VERIFY_BATCH), "--output", output]
                batches += 1
            else:
                path = os.path.join(self.workdir, f"in-{j}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                argv = [command, "--input", path, "--output", output]
            out.append({"argv": argv, "output": output, "source": source})
        return out

    def execute(self, item):
        return cli.main(item["argv"])

    def check(self, index, item, code):
        if code != 0:
            return f"{item['argv'][0]} exited {code}"
        with open(item["output"], "rb") as fh:
            body = fh.read()
        first = self.first_output.setdefault(index, body)
        if body != first:
            return f"{item['argv'][0]} report changed between passes"
        doc = json.loads(body)
        command = item["argv"][0]
        if command == "deflator" and "error" in doc:
            return "deflator report carries an error"
        if command == "verify-theorems" and doc.get("ok") is not True:
            return "verify-theorems batch not ok"
        if item["source"] == "forced" and doc.get("verdict") is not False:
            return "forced support failure did not give a false verdict"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (EnlargedSweep, OracleCrosscheck, DriftTransfer,
                                 CliReports)}
