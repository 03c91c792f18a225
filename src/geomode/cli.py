"""Command-line interface: each command parses its arguments, calls the
library, maps the verdict to an exit code and prints.

Subcommands: evolve, enumerate, check, scan, plateau, simulate-counts,
ingest, fidelity.  Global flags: --config, --seed, --out-dir.  Every
report document comes from the library and is written by
:mod:`geomode.report`, so re-running a command reproduces byte-identical
files.  The system comes from ``--config`` (a JSON file, see
``coupledmode.system_from_json``) or the ``paper-jx4`` preset, the
calibrated Jx structure at its ideal length, an ordinary system whose
``coupledmode.StructureFamily`` serves scans, ingest and ``evolve --length``.

The parser is built once per process (``build_parser`` is cached), and
options that several commands take come from shared parent parsers, so
each flag is defined once.  ``main`` runs the command ``cmd_<name>``
(``-`` read as ``_``) that it finds by name in this module at call time.
The parser checks all that the argument text decides.  ``main`` prints
every ``error[kind]:`` line: a ``CommandError`` exits with its code, and a
``ValueError`` the library raises on a caller's value exits 2 as
``error[invalid-arguments]:``.  A ``MemoryError`` from any command
exits 3 as ``error[out-of-memory]: <command> ran out of memory``.  The
commands keep only the checks that need the built system or a file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import coupledmode as cm
from . import enumeration as en
from . import experiment as xp
from . import holonomy as hol
from . import reference as ref
from . import report as rp
from .fock import ParticleType, enumerate_basis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_NOT_CYCLIC = 4
EXIT_NOT_HOLONOMIC = 5

PRESET_NAME = "paper-jx4"
SCAN_MODES = {"theory": "theory", "synthetic": "synthetic-experiment"}


class CommandError(Exception):
    """A failed command: one ``error[kind]:`` line on stderr and exit ``code``."""

    def __init__(self, kind: str, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.kind, self.code = kind, code


# ---------------------------------------------------------------- plumbing


@contextmanager
def _reading(path, kind: str, what: str):
    """An unreadable file (missing, a directory, not UTF-8) is one ``error[kind]:`` line."""
    try:
        yield
    except FileNotFoundError:
        raise CommandError(kind, f"{what} {path} not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise CommandError(kind, f"cannot read {what} {path}: {reason}") from None


def _read_json(path, kind: str, what: str, invalid: str):
    """The JSON document in file ``path``; invalid JSON is ``error[kind]: invalid: <reason>``."""
    with _reading(path, kind, what):
        text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CommandError(kind, f"{invalid}: {exc}") from None


def build_system(args):
    """(system, its :class:`~geomode.coupledmode.StructureFamily`) from
    ``--config``: a file-defined system, or the preset's structure."""
    config = {"preset": PRESET_NAME}
    if args.config:
        config = _read_json(args.config, "invalid-config", "config file",
                            "config is not valid JSON")
        if not isinstance(config, dict):
            raise CommandError("invalid-config", "config must be a JSON object")
    preset = config.get("preset")
    if preset is None:
        try:
            system = cm.system_from_json(config)
        except (ValueError, KeyError) as exc:
            raise CommandError("invalid-config", f"bad system definition: {exc}")
        return system, cm.StructureFamily(system)
    if preset != PRESET_NAME:
        raise CommandError("invalid-config", f"unknown preset {preset!r}")
    for key in ("omega_flat_per_mm", "length_mm"):
        if not cm.is_finite_number(config.get(key, 0.0)):
            raise CommandError("invalid-config",
                               f"{key} must be a finite number, not {config[key]!r}")
    omega = float(config.get("omega_flat_per_mm", cm.FLAT_COUPLING_PER_MM))
    try:
        system = cm.jx4_structure(float(config.get("length_mm", cm.IDEAL_LENGTH_MM)), omega)
    except ValueError as exc:
        raise CommandError("invalid-config", str(exc))
    return system, cm.StructureFamily(system)


def load_subspace(args, modes: int) -> hol.Subspace:
    """The ``--subspace`` file over ``modes`` modes; the one check that
    ``--subspace`` was given, for every command that reads it."""
    if not args.subspace:
        raise CommandError("invalid-arguments", "this command needs --subspace FILE")
    doc = _read_json(args.subspace, "invalid-arguments", "subspace file",
                     "bad subspace definition")
    try:
        return hol.subspace_from_json(doc, modes=modes)
    except (ValueError, KeyError) as exc:
        raise CommandError("invalid-arguments", f"bad subspace definition: {exc}")


def out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _particle_type(kind: str, particles: int) -> ParticleType:
    if kind == "distinguishable":
        return ParticleType.distinguishable(*"abcdefgh"[:particles])
    return ParticleType(kind)


def _detection(args, modes: int) -> xp.DetectionModel:
    """Calibrated ratios on the four measured ports, or 0.5 on each of ``modes`` ports."""
    ratios = xp.CALIBRATED_SPLITTERS if args.splitters == "calibrated" else (0.5,) * modes
    return xp.DetectionModel(splitter_ratios=ratios, trials=args.trials, seed=args.seed)


def _scan_inputs(sub: hol.Subspace, args) -> list[xp.InputSpec]:
    stats = "distinguishable" if args.distinguishable else None
    prep = "hom_bunched" if args.hom_bunched else "direct"
    members = sub.members
    if args.inputs is not None:
        # a member's key is its label without bars and spaces: 2000, a1b4
        by_key = {m.label()[1:-1].replace(" ", ""): m for m in members}
        try:
            members = [by_key[key] for key in args.inputs]
        except KeyError as exc:
            raise CommandError("invalid-arguments", f"input {exc} is not a subspace member")
    # --hom-bunched prepares the doubly occupied boson inputs; the others launch directly
    return [xp.InputSpec(m, visibility=args.visibility, statistics=stats,
                         preparation=prep if m.particle.kind == "boson"
                         and 2 in m.occupations else "direct")
            for m in members]


def _scan_setup(args):
    """(subspace, inputs, lengths, detection, family) of a scan, plateau or
    count simulation; without --grid or --lengths, the seven realized lengths."""
    system, family = build_system(args)
    sub = load_subspace(args, system.modes)
    lengths = cm.STRUCTURE_LENGTHS_MM if args.lengths is None else args.lengths
    if args.grid is not None:
        lo, hi, step = args.grid
        lengths = np.arange(lo, hi + step / 2, step)
    return (sub, _scan_inputs(sub, args), np.asarray(lengths),
            _detection(args, system.modes), family)


# ---------------------------------------------------------------- commands


def cmd_evolve(args) -> int:
    system, family = build_system(args)
    if args.length is None:
        if system.static_pattern is not None:
            raise CommandError("invalid-arguments", "--delta fixes U only for a system without "
                               "a static_pattern; give --length")
        u, delta = system.pattern.unitary_batch(args.delta), args.delta
    else:
        u, delta = family.stack([args.length])[0], family.phase([args.length])[0]
    doc = cm.evolution_to_json(u, delta)
    rp.write_json(out_dir(args) / "evolution.json", doc)
    print(rp.dumps_json(doc))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    system, _ = build_system(args)
    basis = enumerate_basis(system.modes, args.particles,
                            _particle_type(args.type, args.particles))
    if basis.size < 2:
        raise CommandError("invalid-arguments", "enumeration needs a basis of at least 2 "
                           f"states; {args.particles} {args.type} particles on "
                           f"{system.modes} modes give {basis.size}")
    try:
        report = en.enumerate_holonomic(system, basis, cap=args.cap)
    except en.EnumerationCapError as exc:
        cyclic = exc.partial_report.cyclic_subspaces
        raise CommandError("cap-exceeded", f"{cyclic} cyclic subspaces exceed the cap of "
                           f"{args.cap}; rerun with --cap {cyclic}", EXIT_CAP) from None
    except MemoryError:
        raise CommandError("out-of-memory", "the census ran out of memory under the cap of "
                           f"{args.cap}; rerun with a smaller --cap", EXIT_CAP) from None
    doc = report.to_json()
    directory = out_dir(args)
    rp.write_json(directory / "enumeration_report.json", doc)
    report.write_csv(directory / "enumeration_summary.csv")
    totals = doc["totals"]
    print(f"{totals['subspaces']} total, {totals['cyclic']} cyclic, "
          f"{totals['holonomic']} holonomic "
          f"(scalar={totals['holonomic_scalar']}, diagonal={totals['holonomic_diagonal']}, "
          f"non_scalar={totals['holonomic_non_scalar']}); "
          f"dim>=2 holonomic={totals['holonomic_dim_ge_2']}")
    return EXIT_OK


def cmd_check(args) -> int:
    system, _ = build_system(args)
    check = hol.check_subspace(load_subspace(args, system.modes), system)
    doc = check.to_json()
    rp.write_json(out_dir(args) / "check_report.json", doc)
    print(f"cyclic: {check.cyclic}  max|K|: {check.k.max_abs:.3e}  verdict: {doc['verdict']}")
    if check.holonomic:
        print(f"classification: {doc['classification']}")
        for row in doc["holonomy"]:
            print("  " + "  ".join(f"{re:+.3f}{im:+.3f}i" for re, im in row))
        return EXIT_OK
    if check.cyclic:
        raise CommandError("not-holonomic", f"max|K| {check.k.max_abs:.6e} at element "
                           f"{doc['worst_element']}", EXIT_NOT_HOLONOMIC)
    raise CommandError("not-cyclic", f"projector residual {check.residual:.6e}", EXIT_NOT_CYCLIC)


def cmd_scan(args) -> int:
    sub, specs, lengths, detection, family = _scan_setup(args)
    result = xp.scan(sub, specs, lengths, mode=SCAN_MODES[args.mode], detection=detection,
                     family=family)
    directory = out_dir(args)
    rp.write_json(directory / "scan_result.json", result.to_json())
    result.write_csv(directory / "scan_curves.csv")
    for label, (lengths, probability, _) in result.curves.items():
        peak = None if np.isnan(probability).all() else np.nanargmax(probability)
        desc = "all points undefined" if peak is None else \
            f"peak {probability[peak]:.4f} at {lengths[peak]:g} mm"
        print(f"{label}: {len(lengths)} points, {desc}")
    return EXIT_OK


def cmd_plateau(args) -> int:
    if args.table_s2:
        # the catalogue is the preset's: --config and every scan, rule and clip
        # option stay unset; --seed, --out-dir and the table's own options may be set
        defaults = vars(build_parser().parse_args(["plateau"]))
        extra = ["--config"] * bool(args.config) + [
            f"--{k.replace('_', '-')}" for k, v in defaults.items()
            if k not in ("config", "seed", "out_dir", "table_s2", "table_grid_step")
            and getattr(args, k) != v]
        if extra:
            raise CommandError("invalid-arguments", "--table-s2 recomputes the paper-jx4 "
                               f"catalogue and takes no {', '.join(extra)}")
        doc = ref.width_table(xp.CurveEngine(xp.theory_lengths(args.table_grid_step)))
        rp.write_json(out_dir(args) / "plateau_table.json", doc)
        print(f"{'subspace':55s} {'restricted':>18s} {'unrestricted':>18s}")
        for row in doc["rows"]:
            r, u = (f"{row[k + '_mm']:6.2f}/{row[k + '_reference_mm']:5.1f} "
                    f"{'ok' if row[k + '_pass'] else 'FAIL'}"
                    for k in ("restricted", "unrestricted"))
            print(f"{row['subspace']:55s} {r:>18s} {u:>18s}")
        for row in doc["non_holonomic_rows"]:
            verdict = "ok" if row["classified_non_holonomic"] else "FAIL"
            print(f"{row['subspace']:55s} non-holonomic width "
                  f"{row['unrestricted_mm']:5.2f} mm {verdict}")
        census = doc["holonomy_census"]
        print(f"holonomy census: {census['enumerated_dim_ge_2']} holonomic cyclic "
              f"subspaces of dim >= 2 ({census['enumerated_non_scalar']} non-scalar, "
              f"{census['enumerated_scalar_dim_ge_2']} scalar); catalogue lists "
              f"{census['catalogued_subspaces']}; stated non-Abelian count "
              f"{census['stated_non_abelian_count']}")
        print(f"all_pass: {doc['all_pass']}")
        return EXIT_OK
    clip = None
    if args.clip_lo is not None or args.clip_hi is not None:
        clip = (args.clip_lo, args.clip_hi)
        if None in clip or not -math.inf < clip[0] < clip[1] < math.inf:
            raise CommandError("invalid-arguments", "--clip-lo and --clip-hi go together "
                               "and need finite LO < HI")
    rule = xp.THEORY_RULE if args.rule == "theory" else xp.EXPERIMENTAL_RULE
    if rule == xp.THEORY_RULE and args.grid is None and args.lengths is None:
        args.lengths = xp.theory_lengths(0.01)
    sub, specs, lengths, detection, family = _scan_setup(args)
    result = xp.scan(sub, specs, lengths, mode=SCAN_MODES[args.mode], detection=detection,
                     family=family)
    curves = np.column_stack([curve.probability for curve in result.curves.values()])
    report = xp.plateau_report(lengths, curves, list(result.curves), rule, clip=clip)
    rp.write_json(out_dir(args) / "plateau_report.json", report.to_json())
    for label, interval in report.per_input.items():
        print(f"{label}: plateau [{interval.start:.2f}, {interval.end:.2f}] mm, "
              f"width {interval.width:.2f} mm")
        # an edge on the grid's first or last sample is where the scan
        # stopped, not where the rule found the plateau's end
        open_edges = [f"{name} ({edge:.2f} mm)" for name, edge, grid_end in (
            ("start", interval.start, lengths[0]),
            ("end", interval.end, lengths[-1])) if edge == grid_end]
        if open_edges:
            print(f"warning[open-plateau]: {label}: the plateau runs to the length grid's "
                  f"{' and '.join(open_edges)}; the rule found no edge there", file=sys.stderr)
    print(f"mean width: {report.mean_width:.2f} mm")
    return EXIT_OK


def cmd_simulate_counts(args) -> int:
    sub, specs, lengths, detection, family = _scan_setup(args)
    rows = xp.simulate_counts(sub, specs, lengths, detection=detection, family=family)
    path = out_dir(args) / "counts.csv"
    xp.write_counts_csv(path, rows)
    print(f"wrote {len(rows)} count records to {path}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    system, family = build_system(args)
    sub = load_subspace(args, system.modes)
    with _reading(args.counts, "invalid-arguments", "count file"):
        result = xp.ingest_counts(args.counts, sub, _detection(args, system.modes), family)
    directory = out_dir(args)
    rp.write_json(directory / "ingested_scan.json", result.to_json())
    result.write_csv(directory / "ingested_curves.csv")
    n_points = sum(len(curve.lengths) for curve in result.curves.values())
    print(f"ingested {n_points} points over {len(result.curves)} input states")
    return EXIT_OK


def cmd_fidelity(args) -> int:
    p, q = (_read_json(path, "invalid-arguments", "distribution file", "bad distribution JSON")
            for path in (args.theory, args.experiment))
    if isinstance(p, dict) and isinstance(q, dict):
        keys = sorted(set(p) | set(q))
        p = [p.get(k, 0.0) for k in keys]
        q = [q.get(k, 0.0) for k in keys]
    elif not (isinstance(p, list) and isinstance(q, list)):
        raise CommandError("invalid-arguments",
                           "distributions must both be JSON arrays or objects")
    print(format(xp.fidelity(p, q), ".17g"))
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _flag(parse, ok, condition: str):
    """An argparse type: ``parse(text)`` if it succeeds and passes ``ok``,
    else the error "argument --flag: <condition>, got '<text>'"."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{condition}, got {text!r}")
        return value
    return convert


def _numbers(separator: str):
    return lambda text: tuple(float(v) for v in text.split(separator))


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ``error[invalid-arguments]:``, like every other."""

    def error(self, message):
        raise CommandError("invalid-arguments", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(prog="geomode",
                            description="Multi-particle holonomies in coupled-mode lattices")
    parser.add_argument("--config", help="system definition JSON (default: paper-jx4 preset)")
    parser.add_argument("--seed", type=int, default=xp.DEFAULT_SEED,
                        help="master random seed (default %(default)s)")
    parser.add_argument("--out-dir", default=".", help="directory for report files")
    sub = parser.add_subparsers(dest="command", required=True)
    finite = _flag(float, math.isfinite, "must be a finite number")

    # options shared by several commands, each written once
    subspace = ArgumentParser(add_help=False)
    subspace.add_argument("--subspace", help="subspace JSON file")
    detection = ArgumentParser(add_help=False)
    detection.add_argument("--trials", type=int, default=100_000)
    detection.add_argument("--splitters", choices=["ideal", "calibrated"], default="calibrated")
    scan = ArgumentParser(add_help=False, parents=[subspace, detection])
    scan.add_argument("--inputs", help="comma-separated occupation strings (default: all)",
                      type=_flag(lambda text: tuple(text.split(",")),
                                 lambda keys: len(set(keys)) == len(keys),
                                 "must name each input once"))
    group = scan.add_mutually_exclusive_group()
    group.add_argument("--lengths", help="comma-separated lengths in mm",
                       type=_flag(_numbers(","), _all_finite,
                                  "must be comma-separated finite numbers"))
    group.add_argument("--grid", help="LO:HI:STEP dense length grid in mm",
                       type=_flag(_numbers(":"), lambda v: len(v) == 3 and _all_finite(v)
                                  and v[2] > 0, "must be LO:HI:STEP with finite LO and "
                                  "HI and a positive finite STEP"))
    scan.add_argument("--mode", choices=["theory", "synthetic"], default="theory")
    scan.add_argument("--distinguishable", action="store_true",
                      help="launch independent (heralded) photons")
    scan.add_argument("--hom-bunched", action="store_true",
                      help="prepare bunched inputs on a balanced splitter")
    scan.add_argument("--visibility", type=float, default=xp.BUNCHED_PREPARATION_VISIBILITY)

    p = sub.add_parser("evolve", help="print the single-particle evolution operator")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=finite, help="accumulated phase in radians")
    group.add_argument("--length", type=finite, help="structure length in mm")

    p = sub.add_parser("enumerate", help="enumerate cyclic subspaces and classify them")
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--type", choices=["boson", "fermion", "distinguishable"],
                   default="boson")
    p.add_argument("--cap", type=_flag(int, lambda n: n >= 0, "must be a non-negative integer"),
                   default=en.ENUMERATION_CAP)

    sub.add_parser("check", parents=[subspace], help="cyclicity/holonomy verdict for a subspace")
    sub.add_parser("scan", parents=[scan], help="success-probability scan over structure length")

    p = sub.add_parser("plateau", parents=[scan], help="plateau extraction / reference table")
    p.add_argument("--rule", choices=["theory", "experimental"], default="theory")
    p.add_argument("--clip-lo", type=float, default=None)
    p.add_argument("--clip-hi", type=float, default=None)
    p.add_argument("--table-s2", action="store_true",
                   help="recompute the bundled reference width table")
    p.add_argument("--table-grid-step", default=0.01, type=_flag(
        float, lambda v: 0 < v < math.inf, "must be a positive finite number"))

    sub.add_parser("simulate-counts", parents=[scan], help="write synthetic detector counts")

    p = sub.add_parser("ingest", parents=[subspace, detection],
                       help="rebuild probabilities from a count CSV")
    p.add_argument("--counts", required=True)

    p = sub.add_parser("fidelity", help="Bhattacharyya overlap of two distributions")
    p.add_argument("--theory", required=True)
    p.add_argument("--experiment", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            # looked up at each call, so a rebound cmd_* attribute is the one that runs
            return globals()["cmd_" + args.command.replace("-", "_")](args)
        except MemoryError:
            raise CommandError("out-of-memory", f"{args.command} ran out of memory",
                               EXIT_CAP) from None
    except (CommandError, ValueError) as exc:
        # the one boundary for a failed command and the library's verdict on a caller's value
        print(f"error[{getattr(exc, 'kind', 'invalid-arguments')}]: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CommandError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
