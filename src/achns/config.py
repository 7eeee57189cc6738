"""Sectioned key=value run configuration.

The format is a small INI dialect: `[section]` headers, `key = value`
lines, `#` comments. Every key is optional; the defaults reproduce the
packaged demo run, so an empty file is a valid configuration. Unknown
sections or keys, duplicate keys, malformed values and physically
inadmissible combinations are all rejected with the offending line
number.

`_SCHEMA` holds every key's parser and default. `_PROFILES` is the one
place where an initial-data profile is defined: the keys it reads and
what it builds. `_read_profile` reads every profile section against it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .anisotropy import AnisotropyModel, check_hypotheses, quadratic_form
from .basis import TorusGrid
from .dynamics import MaterialLaws, Problem, StepperConfig
from .errors import ConfigError, DimensionError, DomainError
from .potential import PotentialSpec, eps_threshold, validate_eps
from .profiles import (
    BlobDensity,
    ConstantDensity,
    SinusoidalDensity,
    phi_band_random,
    phi_constant,
    phi_modes,
    u_random_solenoidal,
    u_taylor_green,
    u_zero,
)

TWO_PI = 2.0 * np.pi

SNAPSHOT_CHOICES = ("none", "final", "all")


def _pfloat(text, line):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}", line) from None
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}", line)
    return value


def _pint(text, line):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", line) from None


def _pbool(text, line):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"expected true or false, got {text!r}", line)


def _pstr(text, line):
    return text


def _pmodes(text, line):
    """Semicolon-separated k1,k2,re,im quadruples."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"mode {chunk!r} is not k1,k2,re,im", line)
        out.append((_pint(parts[0], line), _pint(parts[1], line),
                    _pfloat(parts[2], line), _pfloat(parts[3], line)))
    if not out:
        raise ConfigError("empty mode list", line)
    return out


# each key's parser and default (None: unset unless given); the defaults
# reproduce the packaged demo run
_SCHEMA = {
    "domain": {"l1": (_pfloat, TWO_PI), "l2": (_pfloat, TWO_PI),
               "n1": (_pint, 32), "n2": (_pint, 32)},
    "anisotropy": {"m11": (_pfloat, 1.2), "m12": (_pfloat, -0.1), "m22": (_pfloat, 1.0)},
    "potential": {"lambda1": (_pfloat, 1.0), "lambda2": (_pfloat, 0.5), "eps": (_pfloat, 0.1)},
    "material": {"nu_minus": (_pfloat, 0.12), "nu_plus": (_pfloat, 0.08),
                 "d_minus": (_pfloat, 0.0146), "d_plus": (_pfloat, 0.0146)},
    "density": {"profile": (_pstr, "sinusoidal"), "value": (_pfloat, None),
                "base": (_pfloat, 1.5), "amplitude": (_pfloat, 0.5),
                "k1": (_pint, 1), "k2": (_pint, 1), "width": (_pfloat, None),
                "center1": (_pfloat, None), "center2": (_pfloat, None)},
    "initial_phi": {"profile": (_pstr, "band_random"), "value": (_pfloat, None),
                    "modes": (_pmodes, None), "seed": (_pint, 7), "kmax": (_pint, 2),
                    "amplitude": (_pfloat, 0.5), "mean": (_pfloat, -0.05),
                    "extra_modes": (_pmodes, [(10, -10, 2e-9, 0.0)])},
    "initial_u": {"profile": (_pstr, "taylor_green"), "amplitude": (_pfloat, 0.3),
                  "seed": (_pint, None), "kmax": (_pint, None)},
    "time": {"dt": (_pfloat, 4e-3), "t_end": (_pfloat, 1.0), "allow_unstable_dt": (_pbool, False),
             "n_modes_u": (_pint, None), "n_modes_phi": (_pint, None)},
    "output": {"directory": (_pstr, "out"), "cadence": (_pint, 1),
               "snapshots": (_pstr, "final")},
}


def _phi_band_random(grid, seed, kmax, amplitude, mean, extra_modes):
    phi0 = phi_band_random(grid, seed, kmax, amplitude, mean)
    # seed modes are optional perturbations: drop the ones the grid cannot
    # represent so one config serves every resolution
    kx, ky = grid.cutoff
    fits = [m for m in extra_modes if abs(m[0]) <= kx and abs(m[1]) <= ky]
    return phi0 + phi_modes(grid, fits) if fits else phi0


# every initial-data profile: the keys it reads, in order, and its builder,
# called with the grid (the box lengths for density) and those keys' values
_PROFILES = {
    ("density", "constant"): (("value",), lambda box, value: ConstantDensity(value)),
    ("density", "sinusoidal"): (("base", "amplitude", "k1", "k2"),
                                lambda box, b, a, k1, k2: SinusoidalDensity(b, a, box, k1, k2)),
    ("density", "blob"): (("base", "amplitude", "width", "center1", "center2"),
                          lambda box, b, a, w, c1, c2: BlobDensity(b, a, w, (c1, c2), box)),
    ("initial_phi", "constant"): (("value",), phi_constant),
    ("initial_phi", "modes"): (("modes",), phi_modes),
    ("initial_phi", "band_random"): (("seed", "kmax", "amplitude", "mean", "extra_modes"),
                                     _phi_band_random),
    ("initial_u", "zero"): ((), u_zero),
    ("initial_u", "taylor_green"): (("amplitude",), u_taylor_green),
    ("initial_u", "random_solenoidal"): (("seed", "kmax", "amplitude"), u_random_solenoidal),
}


def _build(section, values, at):
    """Build a profile from the values `_read_profile` returned."""
    keys, build = _PROFILES[(section, values["profile"])]
    return build(at, *(values[k] for k in keys))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; every constructor below is
    total on a parsed instance."""

    lengths: tuple
    n_grid: tuple
    model: AnisotropyModel
    spec: PotentialSpec
    laws: MaterialLaws
    rho0: object
    phi_init: dict
    u_init: dict
    dt: float
    t_end: float
    allow_unstable_dt: bool
    n_modes_u: int | None
    n_modes_phi: int | None
    out_dir: str
    cadence: int
    snapshots: str

    def grid(self) -> TorusGrid:
        """The run's one grid, built on first use; `problem()` steps on it."""
        return self._grid

    @cached_property  # per instance, so `dataclasses.replace` gives a variant its own
    def _grid(self):
        return TorusGrid(self.lengths, self.n_grid)

    def problem(self) -> Problem:
        return Problem(self.grid(), self.model, self.spec, self.laws, self.rho0,
                       self.n_modes_u, self.n_modes_phi)

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt, t_end=self.t_end, allow_unstable_dt=self.allow_unstable_dt)

    def initial_fields(self, grid: TorusGrid):
        """(u0, phi0) on grid. A profile value that only the grid can check
        (a random profile's kmax, a modes entry) is refused here, by a
        ConfigError that names the section."""
        built = {}
        for section, values in (("initial_phi", self.phi_init), ("initial_u", self.u_init)):
            try:
                built[section] = _build(section, values, grid)
            except (DimensionError, DomainError) as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        return built["initial_u"], built["initial_phi"]


def _scan(text):
    """Tokenize into {(section, key): (raw value, line number)}."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ConfigError("key outside any section", lineno)
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


class _View:
    """Typed access to scanned entries with schema defaults."""

    def __init__(self, entries):
        self.entries = entries

    def has(self, section, key):
        return (section, key) in self.entries

    def line(self, section, key, fallback=None):
        if self.has(section, key):
            return self.entries[(section, key)][1]
        return fallback

    def get(self, section, key):
        parse, default = _SCHEMA[section][key]
        if (section, key) in self.entries:
            raw, line = self.entries[(section, key)]
            return parse(raw, line)
        return list(default) if isinstance(default, list) else default

    def section_line(self, section, fallback=None):
        lines = [ln for (s, _), (_, ln) in self.entries.items() if s == section]
        return min(lines) if lines else fallback


def _read_profile(view, section):
    """{"profile": name, key: value, ...} of a profile section: every key
    the profile reads, and no explicit key it does not read."""
    profile = view.get(section, "profile")
    first = view.section_line(section, 0)
    if (section, profile) not in _PROFILES:
        choices = ", ".join(sorted(p for (s, p) in _PROFILES if s == section))
        raise ConfigError(f"unknown {section} profile {profile!r} (choices: {choices})",
                          view.line(section, "profile", first))
    keys = _PROFILES[(section, profile)][0]
    given = {k for (s, k) in view.entries if s == section}
    stray = sorted(given - {"profile", *keys})
    if stray:
        raise ConfigError(f"key {stray[0]!r} does not apply to {section} profile {profile!r}",
                          view.line(section, stray[0]))
    values = {"profile": profile}
    for key in keys:
        if not view.has(section, key) and _SCHEMA[section][key][1] is None:
            raise ConfigError(f"{section} profile {profile!r} needs key {key!r}", first)
        values[key] = view.get(section, key)
    return values


def _checked(view, section, make, *args):
    """make(*args), with a DimensionError or DomainError it raises
    turned into a ConfigError at the section's first line."""
    try:
        return make(*args)
    except (DimensionError, DomainError) as exc:
        raise ConfigError(str(exc), view.section_line(section, 0)) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; raises ConfigError with a
    line reference on the first problem found."""
    view = _View(_scan(text))

    lengths = (view.get("domain", "l1"), view.get("domain", "l2"))
    n_grid = (view.get("domain", "n1"), view.get("domain", "n2"))
    grid = _checked(view, "domain", TorusGrid, lengths, n_grid)

    m11 = view.get("anisotropy", "m11")
    m12 = view.get("anisotropy", "m12")
    m22 = view.get("anisotropy", "m22")
    model = quadratic_form([[m11, m12], [m12, m22]])
    report = check_hypotheses(model)
    if not report.all_hold():
        raise ConfigError(
            f"anisotropy is not uniformly elliptic: computed r={report.r:.6g} (needs r > 0)",
            view.section_line("anisotropy", 0),
        )

    lam1 = view.get("potential", "lambda1")
    lam2 = view.get("potential", "lambda2")
    eps = view.get("potential", "eps")
    spec = _checked(view, "potential", PotentialSpec, lam1, lam2, eps)
    if not validate_eps(spec):
        thr = eps_threshold(lam1, lam2)
        raise ConfigError(
            f"eps={eps:g} is inadmissible for lambda1={lam1:g}, lambda2={lam2:g}: "
            f"the regularized well needs eps < {thr:.6g}",
            view.line("potential", "eps", view.section_line("potential", 0)),
        )

    laws = _checked(view, "material", MaterialLaws,
                    view.get("material", "nu_minus"), view.get("material", "nu_plus"),
                    view.get("material", "d_minus"), view.get("material", "d_plus"))

    rho0 = _checked(view, "density", _build, "density", _read_profile(view, "density"), lengths)
    phi_init = _read_profile(view, "initial_phi")
    u_init = _read_profile(view, "initial_u")

    stepper = _checked(view, "time", StepperConfig, view.get("time", "dt"),
                       view.get("time", "t_end"), view.get("time", "allow_unstable_dt"))
    for key in ("n_modes_u", "n_modes_phi"):
        try:
            grid.check_mode_count(view.get("time", key))
        except DomainError as exc:
            raise ConfigError(f"{key}: {exc}", view.line("time", key)) from exc

    cadence = view.get("output", "cadence")
    if cadence < 1:
        raise ConfigError("cadence must be >= 1", view.line("output", "cadence", 0))
    snapshots = view.get("output", "snapshots")
    if snapshots not in SNAPSHOT_CHOICES:
        raise ConfigError(
            f"snapshots must be one of {', '.join(SNAPSHOT_CHOICES)}",
            view.line("output", "snapshots", 0),
        )

    return RunConfig(
        lengths=lengths, n_grid=n_grid, model=model, spec=spec, laws=laws,
        rho0=rho0, phi_init=phi_init, u_init=u_init,
        dt=stepper.dt, t_end=stepper.t_end, allow_unstable_dt=stepper.allow_unstable_dt,
        n_modes_u=view.get("time", "n_modes_u"), n_modes_phi=view.get("time", "n_modes_phi"),
        out_dir=view.get("output", "directory"), cadence=cadence,
        snapshots=snapshots,
    )


def load_config(path: str | None) -> RunConfig:
    """Read and parse a configuration file; None means the built-in
    demo defaults."""
    if path is None:
        return parse_config("")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
