"""Command line interface: simulate, train, evaluate, certify.

Exit codes: 0 on success, 1 when an integration diverges, 2 for input errors
(bad case or controller file, mismatched dimensions, bad flags), 3 when
training diverges, 4 when certification is refused or the certificate fails.

`--case` takes a bundled case name ("ne39", "two_bus") or a path to a case
JSON; `--controller` takes a fresh controller type (droop, pwl, integral,
adaptive) or a path, and `--checkpoint` a path; one reader takes either
path, a bare controller or a whole training checkpoint.  Outside `evaluate`
a command takes one of the two.  A resumed config obeys the rules of the
flags that set it, and a training flag given on resume must agree with it.
All randomness is keyed by `--seed`; output files are byte-identical across
reruns with the same arguments.  `evaluate` integrates each controller's
battery as one batch.  `certify` hands the case, controller and equilibrium
to `lyapunov.certify`, which decides the certificate; the command writes it
and prints its causes of failure.  SWINGFREQ_THREADS, when set, must be a
positive integer; no result depends on its value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .controllers import (
    AdaptiveController,
    Controller,
    ControllerError,
    DroopController,
    MonotonePWLController,
    SaturatedController,
    controller_from_dict,
    controller_to_dict,
)
from .dynamics import BasisSignal, IntegrationError, rollout, rollout_batch
from .lyapunov import CertificationError, certify
from .netmodel import (
    AssumptionViolation,
    CaseError,
    ConvergenceError,
    Network,
    bundled_case_path,
    load_case,
    solve_equilibrium,
)
from .training import (
    EVAL_ONSET,
    AdamState,
    CostSpec,
    Scenario,
    make_cost_spec,
    make_scenarios,
    restoration_cost,
    train,
    transient_loss,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_CERT = 4

RESTORE_WINDOW = (10.0, 15.0)
CONTROLLER_KINDS = ("droop", "pwl", "integral", "adaptive")


def _resolve_case(args) -> Network:
    path = Path(args.case)
    if path.suffix != ".json" and not path.exists():
        path = bundled_case_path(args.case)
    return load_case(path, repair_balance=getattr(args, "repair_balance", False))


def _fresh_controller(kind: str, n: int) -> Controller:
    if kind == "droop":
        return DroopController.initial(n)
    if kind == "pwl":
        return MonotonePWLController.initial(n)
    if kind == "integral":
        return AdaptiveController.initial(
            MonotonePWLController.initial(n), 1, feature_mode="constant"
        )
    if kind == "adaptive":
        return AdaptiveController.initial(
            MonotonePWLController.initial(n), 3, feature_mode="basis"
        )
    raise ControllerError(
        f"unknown controller {kind!r} (expected one of {', '.join(CONTROLLER_KINDS)}, "
        "or a path to a controller JSON)"
    )


def _load_checkpoint(path: str | Path):
    """Load either a full training checkpoint or a bare controller file.

    Returns (controller, optimizer or None, config or None, losses).
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except FileNotFoundError:
        raise ControllerError(f"controller file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise ControllerError(f"malformed checkpoint {p}: {exc}") from None
    if not isinstance(doc, dict):
        raise ControllerError(f"malformed checkpoint {p}: expected a JSON object")
    try:
        ctrl = controller_from_dict(doc.get("controller", doc))
    except ControllerError as exc:
        raise ControllerError(f"malformed checkpoint {p}: {exc}") from None
    if "controller" not in doc:
        return ctrl, None, None, []
    try:
        adam = AdamState.from_dict(doc["optimizer"]) if "optimizer" in doc else None
    except KeyError as exc:
        raise ControllerError(f"malformed checkpoint {p}: optimizer lacks key {exc}") from None
    n_raw = ctrl.raw_parameters().size
    for key, moment in (("m", adam.m), ("v", adam.v)) if adam is not None else ():
        if moment.shape != (n_raw,):
            raise ControllerError(
                f"malformed checkpoint {p}: optimizer key '{key}' has {moment.size} "
                f"entries, the controller {n_raw} raw parameters"
            )
    return ctrl, adam, doc.get("config"), list(doc.get("losses", []))


def _from_file(path: str) -> tuple[str, Controller]:
    """Label and controller of a bare controller file or a checkpoint."""
    return Path(path).stem, _load_checkpoint(path)[0]


def _controller_spec(spec: str, net: Network) -> tuple[str, Controller]:
    """Label and controller for a fresh controller type or a controller file."""
    if Path(spec).suffix == ".json" or Path(spec).exists():
        return _from_file(spec)
    return spec, _fresh_controller(spec, net.n)


def _sized(ctrl: Controller, net: Network, label: str = "") -> Controller:
    if ctrl.n != net.n:
        raise ControllerError(
            f"controller {label}is sized for {ctrl.n} buses but the case has {net.n}"
        )
    return ctrl


def _resolve_controller(args, net: Network) -> tuple[Controller, str]:
    ckpt = args.checkpoint
    label, ctrl = _from_file(ckpt) if ckpt else _controller_spec(args.controller, net)
    if getattr(args, "saturate", None) is not None:
        ctrl = SaturatedController(ctrl, args.saturate)
    return _sized(ctrl, net), label


def _check_thread_cap() -> None:
    """Reject a SWINGFREQ_THREADS that is set but not a positive integer."""
    env = os.environ.get("SWINGFREQ_THREADS", "").strip()
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"SWINGFREQ_THREADS must be a positive integer, got {env!r}")


def _scenario_hash(scen: Scenario) -> str:
    doc = {
        "steps": [list(s) for s in scen.dist.steps],
        "noise_eps": scen.dist.noise_eps,
        "seed": scen.dist.seed,
        "eta": scen.basis.eta.tolist(),
        "coeffs": scen.basis.coeffs.tolist(),
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    net = _resolve_case(args)
    ctrl, label = _resolve_controller(args, net)
    scen = make_scenarios(net, 1, args.seed, noise_eps=args.noise, onset=EVAL_ONSET)[0]
    basis, dist = scen.basis, scen.dist
    if args.no_disturbance:
        basis = BasisSignal(basis.eta, np.zeros_like(basis.coeffs), basis.dt_ref)
        dist = None
    traj = rollout(
        net, ctrl, basis, dist, horizon=args.horizon, dt=args.dt, method=args.method
    )
    out = _out_dir(args)
    traj.write_csv(out / "trajectory.csv")
    traj.write_meta(out / "trajectory.json")
    print(f"case {args.case}: {net.n} buses, controller {label}, {args.method}")
    print(f"wrote {out / 'trajectory.csv'} ({traj.n_records} records)")
    # a run that ends before its steps switch on is summarised whole
    stepped = dist is not None and dist.onset_indices(args.dt, traj.n_records - 1)
    tail = traj.tail(EVAL_ONSET) if stepped else traj
    print(f"nadir         {np.abs(tail.omega).max():.6g} rad/s")
    print(f"final |omega| {np.abs(tail.omega[-1]).max():.6g} rad/s")
    cost = make_cost_spec(net, args.seed)
    if tail.t[-1] >= cost.T - 1e-9:
        print(f"transient     {transient_loss(tail, cost):.6g}")
    if tail.t[-1] >= RESTORE_WINDOW[1] - 1e-9:
        print(f"restoration   {restoration_cost(tail, RESTORE_WINDOW):.6g} rad/s "
              f"(mean over {RESTORE_WINDOW[0]:g}..{RESTORE_WINDOW[1]:g} s after onset)")
    return EXIT_OK


# --- train -------------------------------------------------------------------


def cmd_train(args) -> int:
    net = _resolve_case(args)
    adam, losses_prev = None, []
    if args.checkpoint:
        ctrl, adam, cfg, losses_prev = _load_checkpoint(args.checkpoint)
        if cfg is None:
            raise ControllerError(
                f"{args.checkpoint} has no training config; cannot resume from it"
            )
        if cfg.get("case") != args.case:
            raise ControllerError(
                f"checkpoint was trained on case {cfg.get('case')!r}, not {args.case!r}"
            )
        _sized(ctrl, net)
        cfg = {"noise": 0.0, **cfg}  # a config without noise trains noise-free
        try:
            cost = CostSpec(
                cfg["cost"]["gamma"], np.array(cfg["cost"]["c"]), cfg["cost"]["T"]
            )
            conf = {key: cfg[key] for key in CONFIG_CHECKS}
        except KeyError as exc:
            raise ControllerError(
                f"malformed checkpoint {args.checkpoint}: config lacks key {exc}"
            ) from None
        for key, (ok, what) in CONFIG_CHECKS.items():
            if not ok(conf[key]):
                raise ControllerError(
                    f"malformed checkpoint {args.checkpoint}: config key '{key}' "
                    f"must be {what}, got {conf[key]!r}"
                )
        for flag, key in getattr(args, "given", ()):
            if getattr(args, key) != conf[key]:
                raise ValueError(
                    f"{flag} disagrees with the config of {args.checkpoint}, which has "
                    f"{key} = {conf[key]!r}; resume without it"
                )
        ctype = cfg.get("controller_type", type(ctrl).__name__)
    else:
        ctrl, ctype = _resolve_controller(args, net)
        conf = {key: getattr(args, key) for key in CONFIG_CHECKS}
        cost = make_cost_spec(net, conf["seed"])
    start = conf["epochs_done"]
    scenarios = make_scenarios(
        net, conf["n_scenarios"], conf["seed"], noise_eps=conf["noise"], onset=0.0
    )

    def progress(epoch: int, loss: float) -> None:
        if (epoch + 1) % args.log_every == 0 or epoch == start:
            print(f"epoch {epoch + 1:4d}  loss {loss:.6f}")

    report = train(
        net, ctrl, scenarios, cost,
        epochs=args.epochs, batch_size=conf["batch_size"], lr=conf["lr"],
        seed=conf["seed"], dt=conf["dt"], smooth_max=conf["smooth_max"],
        optimizer=adam, start_epoch=start,
        anchor_loss=losses_prev[0] if losses_prev else None, callback=progress,
    )
    epochs_done = start + len(report.losses)
    doc = {
        "version": __version__,
        "controller": controller_to_dict(report.controller),
        "optimizer": report.optimizer.to_dict(),
        "losses": losses_prev + list(report.losses),
        "config": {
            **conf,
            "case": args.case,
            "controller_type": ctype,
            "epochs_done": epochs_done,
            "cost": {"gamma": cost.gamma, "c": cost.c.tolist(), "T": cost.T},
        },
    }
    out = _out_dir(args)
    path = out / "checkpoint.json"
    _write_json(path, doc)
    if report.aborted:
        kept = (
            f"parameters from epoch {epochs_done}" if epochs_done else "initial parameters"
        )
        print(
            f"training diverged during epoch {epochs_done + 1}; kept the {kept} "
            f"in {path}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    if report.losses:
        print(f"trained {len(report.losses)} epochs: "
              f"loss {report.losses[0]:.6f} -> {report.losses[-1]:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


# --- evaluate ----------------------------------------------------------------


def cmd_evaluate(args) -> int:
    net = _resolve_case(args)
    if args.horizon < EVAL_ONSET + RESTORE_WINDOW[1]:
        raise ValueError(
            f"evaluation needs at least {RESTORE_WINDOW[1]:g} s after the "
            f"{EVAL_ONSET:g} s onset; pass --horizon >= "
            f"{EVAL_ONSET + RESTORE_WINDOW[1]:g}"
        )
    entries = [_from_file(p) for p in args.checkpoint or []]
    entries += [_controller_spec(spec, net) for spec in args.controller or []]
    if not entries:
        raise ValueError("nothing to evaluate: pass --checkpoint and/or --controller")
    seen: dict[str, int] = {}
    labeled = []
    for label, ctrl in entries:
        _sized(ctrl, net, f"{label!r} ")
        seen[label] = seen.get(label, 0) + 1
        labeled.append((f"{label}#{seen[label]}" if seen[label] > 1 else label, ctrl))

    scenarios = make_scenarios(
        net, args.scenarios, args.seed, noise_eps=args.noise, onset=EVAL_ONSET
    )
    hashes = [_scenario_hash(s) for s in scenarios]
    cost = make_cost_spec(net, args.seed)
    delta_star = solve_equilibrium(net)

    # one batch per controller over the whole battery, in scenario order, and
    # one aggregate row per controller; the shared scenario-set hash proves
    # every controller saw the identical battery
    cols = ("transient_loss", "restoration", "nadir", "peak_u")
    rows, summary = [], {}
    for label, ctrl in labeled:
        try:
            trajs = rollout_batch(
                net, ctrl, scenarios, horizon=args.horizon, dt=args.dt,
                method=args.method, delta_star=delta_star, record=("omega", "u"),
            )
        except IntegrationError as exc:
            raise IntegrationError(
                f"controller {label!r} diverged in scenario {exc.row} ({hashes[exc.row]}): "
                f"non-finite state at step {exc.step} (t={exc.t:.6g})"
            ) from None
        mine = []
        for scen_hash, traj in zip(hashes, trajs):
            tail = traj.tail(EVAL_ONSET)
            mine.append({
                "controller": label,
                "scenario_hash": scen_hash,
                "nadir": float(np.abs(tail.omega).max()),
                "restoration": restoration_cost(tail, RESTORE_WINDOW),
                "transient_loss": transient_loss(tail, cost),
                "peak_u": float(np.abs(tail.u).max()),
            })
        rows += mine
        stats: dict[str, float] = {"n_scenarios": len(mine)}
        for c in cols:
            vals = [r[c] for r in mine]
            stats[f"{c}_mean"] = float(np.mean(vals))
            stats[f"{c}_se"] = (
                float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            )
        summary[label] = stats
    set_hash = hashlib.sha256("".join(hashes).encode()).hexdigest()[:12]

    out = _out_dir(args)
    header = ["controller", "scenario_hash", "n_scenarios"]
    header += [f"{c}_{stat}" for c in cols for stat in ("mean", "se")]
    lines = [",".join(header)] + [
        ",".join([label, set_hash, str(s["n_scenarios"])] + [repr(s[h]) for h in header[3:]])
        for label, s in summary.items()
    ]
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
    _write_json(
        out / "comparison.json",
        {
            "case": args.case,
            "seed": args.seed,
            "onset": EVAL_ONSET,
            "horizon": args.horizon,
            "dt": args.dt,
            "noise": args.noise,
            "method": args.method,
            "scenario_set_hash": set_hash,
            "rows": rows,
            "summary": summary,
        },
    )
    width = max(len(label) for label, _ in labeled)
    print(f"{args.scenarios} scenarios on {args.case}, onset {EVAL_ONSET:g} s")
    for label, s in summary.items():
        print(
            f"{label:<{width}}  transient {s['transient_loss_mean']:.4g}  "
            f"restoration {s['restoration_mean']:.4g}  "
            f"nadir {s['nadir_mean']:.4g}"
        )
    print(f"wrote {out / 'comparison.csv'} and {out / 'comparison.json'}")
    return EXIT_OK


# --- certify -----------------------------------------------------------------


def cmd_certify(args) -> int:
    net = _resolve_case(args)
    ctrl, label = _resolve_controller(args, net)
    doc, failures = certify(
        net, ctrl, solve_equilibrium(net),
        scenarios=args.scenarios, calibration=args.calibration, seed=args.seed,
        horizon=args.horizon, dt=args.dt, margin=args.margin, samples=args.samples,
    )
    doc.update(controller=label, case=args.case)
    out = _out_dir(args)
    _write_json(out / "certificate.json", doc)
    print(f"gamma1 {doc['gamma1']:.6g}, gamma2 {doc['gamma2']:.6g} "
          f"(beta1 {doc['beta1']:.6g}, beta2 {doc['beta2']:.6g})")
    print(f"decrease over {doc['n_trajectories']} trajectories: worst margin "
          f"{doc['worst_margin']:.3e} vs tol {doc['tol']:.3e}")
    print(f"region ball r {doc['roa']['r']:.6g}, certified level rho {doc['roa']['rho']:.6g}")
    print(f"wrote {out / 'certificate.json'}")
    if doc["pass"]:
        print("certificate PASS")
        return EXIT_OK
    for line in failures:
        print(f"certificate FAILED: {line}", file=sys.stderr)
    return EXIT_CERT


# --- parser ------------------------------------------------------------------


def _checked(kind, ok, what: str):
    """An argparse type: parse with `kind`, reject values failing `ok`.

    `parse.rule` is the same check on a JSON value, as (check, what): an int,
    or for a float kind an int or a float, and never a bool.
    """

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    parse.rule = (
        lambda x: isinstance(x, (int, kind)) and not isinstance(x, bool) and ok(x), what
    )
    return parse


INTEGER = _checked(int, lambda x: True, "an integer")
POSITIVE = _checked(float, lambda x: 0 < x < np.inf, "a finite positive number")
NONNEGATIVE = _checked(float, lambda x: 0 <= x < np.inf, "a finite nonnegative number")
COUNT = _checked(int, lambda x: x > 0, "a positive integer")
NONNEG_COUNT = _checked(int, lambda x: x >= 0, "a nonnegative integer")
MARGIN = _checked(float, lambda x: 0 < x < np.pi / 2, "strictly between 0 and pi/2")

class _Given(argparse.Action):
    """Store the value (`const` if nargs=0) and note the flag in `namespace.given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = (*getattr(namespace, "given", ()), (option_string, self.dest))


# a training run's config, each key held to the rule of the flag that sets it;
# a resumed checkpoint's config must pass the same rules
CONFIG_CHECKS = {
    "seed": INTEGER.rule,
    "n_scenarios": COUNT.rule,
    "batch_size": COUNT.rule,
    "epochs_done": NONNEG_COUNT.rule,
    "lr": POSITIVE.rule,
    "dt": POSITIVE.rule,
    "noise": NONNEGATIVE.rule,
    "smooth_max": (lambda x: isinstance(x, bool), "true or false"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingfreq",
        description="Adaptive frequency control of lossless power networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags with one meaning and one default in every command that takes them;
    # parents share their actions, so no subparser may set_defaults on these
    case = argparse.ArgumentParser(add_help=False)
    case.add_argument(
        "--case", default="ne39",
        help="bundled case name (ne39, two_bus) or path to a case JSON",
    )
    case.add_argument(
        "--repair-balance", action="store_true",
        help="subtract the mean setpoint from every bus instead of failing on imbalance",
    )
    case.add_argument("--seed", type=INTEGER, default=0, action=_Given)
    case.add_argument("--out", default=".", help="output directory")

    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument("--noise", type=NONNEGATIVE, default=0.0, metavar="EPS",
                       action=_Given, help="uniform injection noise amplitude")

    method = argparse.ArgumentParser(add_help=False)
    g = method.add_mutually_exclusive_group()
    g.add_argument("--euler", dest="method", action="store_const", const="euler",
                   help="integrate with explicit Euler")
    g.add_argument("--rk4", dest="method", action="store_const", const="rk4",
                   help="integrate with RK4 (default)")
    method.set_defaults(method="rk4")

    single = argparse.ArgumentParser(add_help=False)
    source = single.add_mutually_exclusive_group()
    source.add_argument(
        "--controller", default="droop",
        help="fresh controller type (droop, pwl, integral, adaptive) or a JSON path",
    )
    source.add_argument("--checkpoint", help="load the controller from this checkpoint")
    single.add_argument(
        "--saturate", type=POSITIVE, metavar="U_MAX",
        help="clip the control to |u| <= U_MAX",
    )

    p = sub.add_parser(
        "simulate", parents=[case, single, noise, method],
        help="roll one disturbance scenario and write the trajectory",
    )
    p.add_argument("--dt", type=POSITIVE, default=0.01)
    p.add_argument("--horizon", type=POSITIVE, default=15.0, help="simulated seconds")
    p.add_argument("--no-disturbance", action="store_true",
                   help="zero the injection variation (equilibrium run)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "train", parents=[case, noise],
        help="train a controller on random disturbance scenarios",
    )
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--controller", default="adaptive",
        help="fresh controller type (droop, pwl, integral, adaptive) or a JSON path",
    )
    source.add_argument("--checkpoint", help="resume training from this checkpoint; "
                        "training flags given with it must match its config")
    p.add_argument("--scenarios", dest="n_scenarios", metavar="SCENARIOS",
                   type=COUNT, default=50, action=_Given)
    p.add_argument("--epochs", type=NONNEG_COUNT, default=200)
    p.add_argument("--lr", type=POSITIVE, default=1e-3, action=_Given)
    p.add_argument("--batch-size", type=COUNT, default=25, action=_Given)
    p.add_argument("--dt", type=POSITIVE, default=0.01, action=_Given)
    p.add_argument("--smooth-max", action=_Given, nargs=0, const=True, default=False,
                   help="log-sum-exp softening of the peak-deviation term")
    p.add_argument("--log-every", type=COUNT, default=10)
    # a fresh run's config (CONFIG_CHECKS) starts at epoch 0
    p.set_defaults(func=cmd_train, epochs_done=0)

    p = sub.add_parser(
        "evaluate", parents=[case, noise, method],
        help="compare controllers on a shared scenario battery",
    )
    p.add_argument("--checkpoint", action="append",
                   help="checkpoint to evaluate (repeatable)")
    p.add_argument("--controller", action="append",
                   help="fresh controller type or JSON path to evaluate (repeatable)")
    p.add_argument("--scenarios", type=COUNT, default=20)
    p.add_argument("--dt", type=POSITIVE, default=0.01)
    p.add_argument("--horizon", type=POSITIVE, default=17.0,
                   help="simulated seconds (needs onset + 15)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "certify", parents=[case, single],
        help="check the energy certificate along sampled trajectories",
    )
    p.add_argument("--scenarios", type=COUNT, default=20)
    p.add_argument("--calibration", type=COUNT, default=5,
                   help="extra scenarios used only to fit the tolerance")
    p.add_argument("--dt", type=POSITIVE, default=0.005)
    p.add_argument("--horizon", type=POSITIVE, default=6.0)
    p.add_argument("--margin", type=MARGIN, default=0.01,
                   help="angle margin to pi/2 defining the certified region")
    p.add_argument("--samples", type=COUNT, default=2000,
                   help="region samples for the cross-check bounds")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_thread_cap()
        return args.func(args)
    except CertificationError as exc:
        print(f"certification {exc.verdict}: {exc}", file=sys.stderr)
        return EXIT_CERT
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CaseError, ControllerError, ConvergenceError, AssumptionViolation,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
