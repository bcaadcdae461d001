"""Batch command-line front end: train, adapt, simulate, elbo."""

import argparse
import sys
from functools import partial

import numpy as np

from . import io as mio
from . import model as mdl
from .data import accumulate_blocks, rotate
from .elbo import NonFiniteElboError
from .engine import FitConfig, fit_stats, stored_bound
from .linalg import FactorizationError
from .model import ModelParams, PriorConfig
from .numerics import ConvergenceError
from .synth import CounterRng, GenSpec, sample

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (ValueError, KeyError, OSError, mio.FormatError)
_NUMERICAL_ERRORS = (
    FactorizationError,
    NonFiniteElboError,
    ConvergenceError,
    np.linalg.LinAlgError,
)


def _parse_anneal(text):
    """'k1:n1,k2:n2,...' -> ((k1, n1), ...)."""
    schedule = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        kappa, _, span = piece.partition(":")
        schedule.append((float(kappa), int(span)))
    return tuple(schedule)


def _parse_setting(key, cast, value):
    """cast(value) for the setting `key`; a value that does not parse is an input
    error that names the key."""
    try:
        return cast(value)
    except ValueError as exc:
        raise ValueError(f"{key}: cannot parse {value!r} ({exc})") from None


def _config_get(config, key, cast, default):
    if key in config:
        return _parse_setting(key, cast, config[key])
    return default


# (FitConfig field, flag and config key, cast); FitConfig holds the defaults
_FIT_SETTINGS = (
    ("max_iterations", "iters", int),
    ("elbo_rel_tol", "tol", float),
    ("anneal_schedule", "anneal", _parse_anneal),
    ("hyperopt_every", "hyperopt_every", int),
    ("mindiv_every", "mindiv_every", int),
    ("seed", "seed", int),
)

# The keys a config file may set: train and adapt read the training keys,
# simulate --spec the simulation keys. Any other key is an input error.
_TRAIN_KEYS = ("variant", "ny", *(key for _, key, _ in _FIT_SETTINGS), "whiten",
               "a_alpha", "b_alpha", "mu0", "beta", "a_w", "b_w", "psi0_scale", "nu_d")
_SPEC_KEYS = ("d", "ny", "mu", "v_scale", "w_scale")


def _read_config(path, keys):
    """The settings of the config file at `path`, none without one; a key
    outside `keys` is an input error."""
    config = mio.parse_config(path) if path else {}
    unknown = [key for key in config if key not in keys]
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}; the keys are {', '.join(keys)}")
    return config


# a yes/no config value, in any case; anything else is an input error
_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _build_fit_config(config, args):
    """FitConfig from the settings a flag or the config file gives; a flag beats its key."""
    settings = {}
    for field, key, cast in _FIT_SETTINGS:
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is not None:
            settings[field] = _parse_setting(key, cast, value)
    if "whiten" in config:
        text = config["whiten"]
        if text.lower() not in _SWITCH:
            raise ValueError(f"whiten must be one of 1/true/yes/0/false/no, got {text!r}")
        settings["whiten"] = _SWITCH[text.lower()]
    return FitConfig(**settings)


def _build_train_prior(config, variant, d):
    loading, arm = mdl.SCHEMES[variant]
    get = partial(_config_get, config)
    return PriorConfig(variant=variant, **loading.train_prior(get), **arm.train_prior(get, d))


def _save_fit(args, state, params, report, rotation):
    """The model container at --out and, with --trace, the trace CSV."""
    saved = mio.SavedModel(
        variant=state.variant,
        mu=params.mu,
        V=params.V,
        W=params.W,
        qv=state.qv,
        qw=state.qw,
        # hyperopt may have refreshed the hyperparameters; persist the ones in effect
        prior=report.final_prior,
        elbo=report.final_breakdown.total,
        qalpha=state.qalpha,
        rotation=rotation,
    )
    mio.write_model_file(args.out, saved)
    if args.trace:
        mio.write_trace_csv(args.trace, report)


def _load_stats(args, saved=None):
    """Statistics of the command's dataset; for a saved model, checked against its
    dimension and rotated into its coordinates when it was trained whitened."""
    partition = mio.read_labels_file(args.labels)
    stats = accumulate_blocks(mio.read_data_blocks(args.data, partition.assignment.size), partition)
    if saved is None:
        return stats
    if stats.dim != saved.dim:
        raise ValueError(f"data dimension {stats.dim} does not match model {saved.dim}")
    return stats if saved.rotation is None else rotate(stats, saved.rotation)


def cmd_train(args):
    config = _read_config(args.config, _TRAIN_KEYS)
    stats = _load_stats(args)
    variant = args.variant or config.get("variant", mdl.V1_WISHART_NONINFORMATIVE)
    if variant not in mdl.VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n_y = args.ny if args.ny is not None else _config_get(config, "ny", int, 2)
    prior = _build_train_prior(config, variant, stats.dim)
    fit_config = _build_fit_config(config, args)
    state, params, report = fit_stats(stats, prior, fit_config, n_y)
    _save_fit(args, state, params, report, report.rotation)
    return EXIT_OK


def cmd_adapt(args):
    config = _read_config(args.config, _TRAIN_KEYS)
    saved = mio.read_model_file(args.prior)
    stats = _load_stats(args, saved)
    arm = mdl.SCHEMES[saved.variant][1]
    variant = args.variant or arm.adapted_variant
    if variant != arm.adapted_variant:
        raise ValueError(
            f"prior model has variant {saved.variant}, incompatible with {variant}"
        )
    prior = PriorConfig(
        variant=variant,
        v_row_means=saved.qv.mean,
        v_row_precisions=saved.qv.prec,
        **arm.adaptation_prior(saved.qw),
    )
    fit_config = _build_fit_config(config, args)
    state, params, report = fit_stats(stats, prior, fit_config, saved.rank)
    _save_fit(args, state, params, report, saved.rotation)
    return EXIT_OK


def _params_from_spec_config(config, seed):
    missing = [key for key in ("d", "ny") if key not in config]
    if missing:
        raise ValueError(f"spec must set {' and '.join(missing)}")
    d = _config_get(config, "d", int, None)
    ny = _config_get(config, "ny", int, None)
    for key, value in (("d", d), ("ny", ny)):
        if value < 1:
            raise ValueError(f"spec key {key} must be at least 1, got {value}")
    mu = _config_get(config, "mu", mdl.scalar_or_list, 0.0)
    mu = np.full(d, float(mu)) if np.isscalar(mu) else np.asarray(mu, dtype=float)
    if mu.shape != (d,):
        raise ValueError(f"mu must be scalar or length-{d}")
    v_scale = _config_get(config, "v_scale", float, 1.0)
    w_scale = _config_get(config, "w_scale", float, 1.0)
    if not np.isfinite(mu).all():
        raise ValueError(f"spec key mu must be finite, got {config['mu']!r}")
    if not np.isfinite(v_scale):
        raise ValueError(f"spec key v_scale must be finite, got {v_scale}")
    if not 0.0 < w_scale < np.inf:
        raise ValueError(f"spec key w_scale must be positive and finite, got {w_scale}")
    # parameter stream is decoupled from the data stream by seed+1
    rng = CounterRng(seed + 1)
    v = v_scale * rng.gaussians(d * ny).reshape(d, ny)
    return ModelParams(mu=mu, V=v, W=w_scale * np.eye(d))


def cmd_simulate(args):
    if (args.model is None) == (args.spec is None):
        raise ValueError("simulate needs exactly one of --model or --spec")
    if args.model:
        saved = mio.read_model_file(args.model)
        mu, v, w = saved.mu, saved.V, saved.W
        if saved.rotation is not None:
            r = saved.rotation
            mu, v, w = r @ mu, r @ v, r @ w @ r.T
        params = ModelParams(mu=mu, V=v, W=w)
    else:
        params = _params_from_spec_config(_read_config(args.spec, _SPEC_KEYS), args.seed)
    counts = (args.per_speaker,) * args.speakers
    dataset, partition, _ = sample(GenSpec(params=params, counts=counts, seed=args.seed))
    mio.write_data_file(args.out + ".data", dataset.vectors)
    names = [f"spk{i:05d}" for i in range(partition.n_speakers)]
    speaker_names = [names[i] for i in partition.assignment.tolist()]
    mio.write_labels_file(args.out + ".labels", dataset.ids, speaker_names)
    return EXIT_OK


def cmd_elbo(args):
    saved = mio.read_model_file(args.model)
    stats = _load_stats(args, saved)
    breakdown = stored_bound(stats, saved.qv, saved.qw, saved.qalpha, saved.prior)
    for name, value in breakdown.as_dict().items():
        print(f"{name}={value:.17g}")
    return EXIT_OK


def _add_fit_flags(parser):
    """The flags train and adapt share: one per fit setting, whose text is parsed
    like its config-file value and overrides it, and --trace."""
    for _, key, _ in _FIT_SETTINGS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)
    parser.add_argument("--trace")


def build_parser():
    parser = argparse.ArgumentParser(prog="bsplda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model on a labelled dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--labels", required=True)
    train.add_argument("--config", default=None)
    train.add_argument("--out", required=True)
    train.add_argument("--variant", default=None, choices=list(mdl.VARIANTS))
    train.add_argument("--ny", type=int, default=None)
    _add_fit_flags(train)
    train.set_defaults(func=cmd_train)

    adapt = sub.add_parser("adapt", help="adapt a trained model to new data")
    adapt.add_argument("--prior", required=True)
    adapt.add_argument("--data", required=True)
    adapt.add_argument("--labels", required=True)
    adapt.add_argument("--config", default=None)
    adapt.add_argument("--out", required=True)
    adapt.add_argument("--variant", default=None, choices=list(mdl.VARIANTS))
    _add_fit_flags(adapt)
    adapt.set_defaults(func=cmd_adapt)

    sim = sub.add_parser("simulate", help="sample a synthetic dataset")
    sim.add_argument("--model", default=None)
    sim.add_argument("--spec", default=None)
    sim.add_argument("--speakers", type=int, required=True)
    sim.add_argument("--per-speaker", dest="per_speaker", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    elbo_cmd = sub.add_parser("elbo", help="print the bound of a model on a dataset")
    elbo_cmd.add_argument("--model", required=True)
    elbo_cmd.add_argument("--data", required=True)
    elbo_cmd.add_argument("--labels", required=True)
    elbo_cmd.set_defaults(func=cmd_elbo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"bsplda: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"bsplda: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
