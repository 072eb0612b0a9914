"""Synthetic acousto-ultrasonic records for a plate instrumented with P
piezoelectric transducers.

Each actuation step fires one transducer; every other transducer records one
signal per repeat. A record is a Hanning-windowed toneburst plus a handful of
later echoes. Temperature enters twice: echo arrival times stretch by
alpha(T) = 1 + kappa * (T - T_ref) and the whole waveform is scaled by
gain(T) = 1 + temp_gain_per_c * (T - T_ref), with T_ref the lowest scenario
temperature. Damage adds one extra echo whose amplitude grows linearly with
severity and is weighted by how close the damage sits to the actuator-sensor
path. Measurement noise is white Gaussian at a configured SNR.

The plate temperature, and so the echo train, belongs to the actuation
event, not to the record: `generate_dataset` computes one echo train per
event and copies it to each of the event's sensors, which then add their
own damage echo and noise.  That is the arithmetic `synthesize` does for
one record, on the same arrays and generators, so the samples are bitwise
those of a per-record loop.  The actuation steps share nothing, so on
scenarios of at least _kernels.POOL_MIN_RECORDS records per step they are
made on the step pool, one task per actuator.  The noise is drawn as
sigma * standard_normal, the bits of normal(0, sigma), because that draw
releases the GIL and normal(0, sigma) does not.

Datasets round-trip through a JSON manifest (a flat array of record rows)
plus one headerless single-column CSV of samples per record.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _kernels
from .errors import (
    FIELD_KINDS,
    NON_NEGATIVE,
    DataFormatError,
    InvalidArgumentError,
    check_fields,
)

MANIFEST_KEYS = (
    "id",
    "actuator_id",
    "sensor_id",
    "temperature_c",
    "state",
    "severity",
    "sample_rate_hz",
    "path",
)
# JSON value kind of each numeric manifest field
_MANIFEST_KINDS = {
    "actuator_id": "an integer", "sensor_id": "an integer",
    "temperature_c": "a finite number", "severity": "a finite number",
    "sample_rate_hz": "a finite number",
}

# Transducers sit on a circle inscribed in the unit plate; the damage spot is
# fixed off-centre so each actuator-sensor path gets a distinct weight.
_DAMAGE_POS = (0.35, 0.60)
_PATH_WEIGHT_SCALE = 0.25

# Largest scenario accepted, in bytes of float64 samples. generate_dataset
# holds every record in memory at once, and training and detection hold them
# again as the CLI loads them. The built-in reference-damage scenario, the
# largest the package ships (3,888 records of 16,384 samples), is 509 MB;
# 2 GiB leaves four times that, and refuses a scenario that would ask numpy
# for more memory than a workstation has before any array is made.
MAX_SCENARIO_BYTES = 2**31


@dataclass
class ScenarioConfig:
    carrier_freq_hz: float = 50e3
    n_cycles: int = 5
    amplitude: float = 12.0
    n_transducers: int = 4
    temperatures_c: list = field(default_factory=lambda: [35.0, 45.0, 55.0, 65.0, 75.0])
    echoes: list = field(
        default_factory=lambda: [
            (0.40e-3, 1.00),
            (0.90e-3, 0.55),
            (1.60e-3, 0.30),
            (2.40e-3, 0.18),
        ]
    )
    temp_stretch_per_c: float = 1e-3
    temp_gain_per_c: float = 0.0
    temp_jitter_c: float = 0.0
    damage_severities: list = field(default_factory=list)
    damage_echo: tuple = (1.20e-3, 0.25)
    damage_temperatures_c: list | None = None
    noise_snr_db: float | None = 40.0
    n_repeats: int = 10
    sample_rate_hz: float = 1e6
    n_samples: int = 4096
    seed: int = 0


@dataclass
class SignalRecord:
    id: str
    actuator_id: int
    sensor_id: int
    temperature_c: float
    state: str  # "baseline" or "damage"
    severity: float
    sample_rate_hz: float
    samples: np.ndarray
    path: str | None = None


def _validate_burst(carrier, cycles, amplitude, rate):
    if carrier <= 0:
        raise InvalidArgumentError(f"carrier frequency must be positive, got {carrier}")
    if cycles < 1:
        raise InvalidArgumentError(f"cycle count must be >= 1, got {cycles}")
    if amplitude < 0:
        raise InvalidArgumentError(f"amplitude must be >= 0, got {amplitude}")
    if rate < 10.0 * carrier:
        raise InvalidArgumentError(
            f"sample rate {rate} is below 10x the carrier {carrier}"
        )


def _burst_at(t: np.ndarray, carrier: float, cycles: int, amplitude: float) -> np.ndarray:
    """Burst evaluated at arbitrary (possibly fractional-sample) times."""
    duration = cycles / carrier
    inside = (t >= 0.0) & (t < duration)
    out = np.zeros_like(t)
    ti = t[inside]
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * ti / duration))
    out[inside] = amplitude * window * np.cos(2.0 * np.pi * carrier * ti)
    return out


def transducer_positions(n_transducers: int) -> np.ndarray:
    """Equidistant layout on a circle inscribed in the unit plate."""
    angles = 2.0 * np.pi * np.arange(n_transducers) / n_transducers
    return np.column_stack([0.5 + 0.5 * np.cos(angles), 0.5 + 0.5 * np.sin(angles)])


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    u = float((p - a) @ ab) / denom
    u = min(1.0, max(0.0, u))
    closest = a + u * ab
    return float(np.hypot(*(p - closest)))


def damage_path_weight(config: ScenarioConfig, actuator_id: int, sensor_id: int) -> float:
    """Weight in (0, 1]: paths passing closer to the damage spot score higher."""
    pos = transducer_positions(config.n_transducers)
    p = np.array(_DAMAGE_POS)
    d = _point_segment_distance(p, pos[actuator_id - 1], pos[sensor_id - 1])
    return 1.0 / (1.0 + d / _PATH_WEIGHT_SCALE)


def _validate_config(config: ScenarioConfig) -> None:
    _validate_burst(
        config.carrier_freq_hz, config.n_cycles, config.amplitude, config.sample_rate_hz
    )
    # the noise level scales with the clean signal's RMS, so a silent echo
    # train would give all-zero baselines
    if config.amplitude == 0:
        raise InvalidArgumentError("amplitude must be > 0")
    if not any(gain != 0 for _delay, gain in config.echoes):
        raise InvalidArgumentError("echoes must include at least one nonzero gain")
    if config.n_transducers < 2:
        raise InvalidArgumentError("need at least 2 transducers")
    if not config.temperatures_c:
        raise InvalidArgumentError("temperature list is empty")
    if config.n_repeats < 1:
        raise InvalidArgumentError("n_repeats must be >= 1")
    if config.temp_jitter_c < 0:
        raise InvalidArgumentError("temp_jitter_c must be >= 0")
    if any(sev <= 0 for sev in config.damage_severities):
        # synthesize adds the damage echo only for a positive severity
        raise InvalidArgumentError("damage_severities must all be > 0")
    if config.n_samples < 2:
        raise InvalidArgumentError("n_samples must be >= 2")
    nbytes = _record_count(config) * config.n_samples * 8
    if nbytes > MAX_SCENARIO_BYTES:
        raise InvalidArgumentError(
            f"scenario holds {nbytes / 2**30:.3g} GiB of samples (records x n_samples"
            f" x 8 bytes), above the {MAX_SCENARIO_BYTES / 2**30:g} GiB limit"
        )
    duration = config.n_samples / config.sample_rate_hz
    t_ref = min(config.temperatures_c)
    alpha_max = max(
        1.0 + config.temp_stretch_per_c * (t - t_ref) for t in config.temperatures_c
    )
    if alpha_max <= 0:
        raise InvalidArgumentError("temperature stretch drives alpha non-positive")
    all_delays = [d for d, _ in config.echoes] + [config.damage_echo[0]]
    for delay in all_delays:
        if delay < 0:
            raise InvalidArgumentError(f"echo delay {delay} is negative")
        if delay * alpha_max >= duration:
            raise InvalidArgumentError(
                f"echo delay {delay}s leaves the {duration}s record after stretching"
            )
    for t in config.temperatures_c:
        if 1.0 + config.temp_gain_per_c * (t - t_ref) <= 0:
            raise InvalidArgumentError("temperature gain drives the amplitude non-positive")
    if config.damage_temperatures_c is not None:
        extra = set(config.damage_temperatures_c) - set(config.temperatures_c)
        if extra:
            raise InvalidArgumentError(
                f"damage temperatures {sorted(extra)} not in the scenario grid"
            )


def _record_count(config: ScenarioConfig) -> int:
    """Number of records `_iter_record_specs` yields, without making them."""
    damage_temps = (
        config.temperatures_c
        if config.damage_temperatures_c is None
        else config.damage_temperatures_c
    )
    states = sum(
        1 + (len(config.damage_severities) if t in damage_temps else 0)
        for t in config.temperatures_c
    )
    return config.n_transducers * (config.n_transducers - 1) * states * config.n_repeats


def synthesize(
    config: ScenarioConfig,
    actuator_id: int,
    sensor_id: int,
    temperature_c: float,
    severity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One record: stretched and gained echo train, damage echo, noise."""
    _validate_config(config)
    for role, tid in (("actuator", actuator_id), ("sensor", sensor_id)):
        if not 1 <= tid <= config.n_transducers:
            raise InvalidArgumentError(
                f"{role} id {tid} outside [1, {config.n_transducers}]"
            )
    if actuator_id == sensor_id:
        raise InvalidArgumentError("actuator cannot sense its own step")
    return _finish_record(
        config,
        _echo_train(config, temperature_c),
        severity,
        damage_path_weight(config, actuator_id, sensor_id),
        _damage_burst(config),
        rng,
    )


def _echo_train(config: ScenarioConfig, temperature_c: float) -> np.ndarray:
    """Echo train at the plate temperature: arrivals stretched, gain applied."""
    t_ref = min(config.temperatures_c)
    alpha = 1.0 + config.temp_stretch_per_c * (temperature_c - t_ref)
    gain_t = 1.0 + config.temp_gain_per_c * (temperature_c - t_ref)
    t = np.arange(config.n_samples) / config.sample_rate_hz
    clean = np.zeros(config.n_samples)
    for delay, gain in config.echoes:
        clean += gain * _burst_at(
            t - delay * alpha, config.carrier_freq_hz, config.n_cycles, config.amplitude
        )
    clean *= gain_t
    return clean


def _damage_burst(config: ScenarioConfig) -> np.ndarray:
    """Unweighted damage echo; it does not stretch with temperature."""
    t = np.arange(config.n_samples) / config.sample_rate_hz
    return _burst_at(
        t - config.damage_echo[0], config.carrier_freq_hz, config.n_cycles, config.amplitude
    )


def _finish_record(
    config: ScenarioConfig,
    clean: np.ndarray,
    severity: float,
    weight: float,
    damage_burst: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add the path-weighted damage echo (into `clean`, in place) and noise."""
    if severity > 0.0:
        clean += severity * config.damage_echo[1] * weight * damage_burst
    snr = config.noise_snr_db
    if snr is None or math.isinf(snr):
        return clean
    rms = float(np.sqrt(np.mean(clean * clean)))
    sigma = rms * 10.0 ** (-snr / 20.0)
    return clean + sigma * rng.standard_normal(config.n_samples)


def _iter_record_specs(config: ScenarioConfig):
    """Fixed enumeration order: step, sensor, temperature, state, repeat."""
    damage_temps = (
        config.temperatures_c
        if config.damage_temperatures_c is None
        else config.damage_temperatures_c
    )
    for actuator in range(1, config.n_transducers + 1):
        for sensor in range(1, config.n_transducers + 1):
            if sensor == actuator:
                continue
            for temp in config.temperatures_c:
                states = [("baseline", 0.0)]
                if temp in damage_temps:
                    states += [("damage", float(s)) for s in config.damage_severities]
                for state, sev in states:
                    for rep in range(config.n_repeats):
                        yield actuator, sensor, temp, state, sev, rep


def _record_id(actuator, sensor, temp, state, sev, rep) -> str:
    tag = "baseline" if state == "baseline" else f"damage{sev:g}"
    return f"a{actuator}-s{sensor}-T{temp:g}-{tag}-r{rep:03d}"


def _group_events(specs: list) -> dict:
    """Spec indices of each actuation event, events in first-seen order.

    An event is one firing, keyed by (actuator, setpoint, state, severity,
    repeat); every other transducer records it, one spec per sensor.
    """
    events = {}
    for i, (actuator, _sensor, temp, state, sev, rep) in enumerate(specs):
        events.setdefault((actuator, temp, state, sev, rep), []).append(i)
    return events


def _actuation_jitter(config: ScenarioConfig, events: dict) -> dict:
    """Temperature drift per actuation event, drawn in the events' order.

    The logged value is the oven setpoint; the plate temperature drifts a
    little around it.  One actuation is recorded by every sensor at once,
    so the drift is keyed by (actuator, setpoint, state, severity, repeat)
    and shared across the sensors of that event.
    """
    keys = list(events)
    if config.temp_jitter_c <= 0.0:
        return {k: 0.0 for k in keys}
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 104729]))
    draws = rng.normal(0.0, config.temp_jitter_c, len(keys))
    return {k: float(d) for k, d in zip(keys, draws)}


def generate_dataset(config: ScenarioConfig) -> list:
    """All records for the scenario; deterministic for a fixed config.

    The records come out in `_iter_record_specs` order, but are built one
    actuation event at a time: the event's echo train depends only on its
    plate temperature (setpoint plus the event's shared drift), so it is
    computed once and copied for each of its sensors.  Each copy then gets
    its pair's damage echo, from one unstretched damage burst made per
    dataset, and noise from the record's own generator (child i of the
    scenario seed for spec i).  These are the arrays, operations and
    generators `synthesize` uses for the record, so every sample is bitwise
    what a per-record `synthesize` loop gives.  Each actuator's events are
    one step-pool task, which calls no public function and writes by index.
    """
    _validate_config(config)
    specs = list(_iter_record_specs(config))
    events = _group_events(specs)
    jitter = _actuation_jitter(config, events)
    children = np.random.SeedSequence(config.seed).spawn(len(specs))
    damage_burst = _damage_burst(config)
    tids = range(1, config.n_transducers + 1)
    weights = {(a, s): damage_path_weight(config, a, s) for a in tids for s in tids if a != s}
    samples = [None] * len(specs)

    def make_step(step):
        for event, indices in events.items():
            actuator, temp, _state, sev, _rep = event
            if actuator != step:
                continue
            train = _echo_train(config, temp + jitter[event])
            for i in indices:
                samples[i] = _finish_record(
                    config, train.copy(), sev, weights[actuator, specs[i][1]],
                    damage_burst, np.random.default_rng(children[i]),
                )

    _kernels._map_steps(make_step, tids, len(specs) / config.n_transducers)
    return [
        SignalRecord(
            id=_record_id(actuator, sensor, temp, state, sev, rep),
            actuator_id=actuator,
            sensor_id=sensor,
            temperature_c=float(temp),
            state=state,
            severity=sev,
            sample_rate_hz=config.sample_rate_hz,
            samples=x,
        )
        for (actuator, sensor, temp, state, sev, rep), x in zip(specs, samples)
    ]


def save_dataset(records: list, out_dir: str) -> str:
    """Write signals/<id>.csv per record plus manifest.json; returns manifest path."""
    sig_dir = os.path.join(out_dir, "signals")
    os.makedirs(sig_dir, exist_ok=True)
    rows = []
    for rec in records:
        rel = f"signals/{rec.id}.csv"
        samples = np.asarray(rec.samples, dtype=float)
        with open(os.path.join(out_dir, rel), "w") as fh:
            fh.write("\n".join(repr(v) for v in samples.tolist()))
            fh.write("\n")
        rows.append(
            {
                "id": rec.id,
                "actuator_id": rec.actuator_id,
                "sensor_id": rec.sensor_id,
                "temperature_c": rec.temperature_c,
                "state": rec.state,
                "severity": rec.severity,
                "sample_rate_hz": rec.sample_rate_hz,
                "path": rel,
            }
        )
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    return manifest_path


def _read(path: str, digest, name: str | None = None) -> str:
    """The UTF-8 text of one dataset file, read once. When digest is given,
    it is fed name (if any), then the sha256 hex digest of the bytes read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if digest is not None:
        if name is not None:
            digest.update(name.encode())
        digest.update(hashlib.sha256(raw).hexdigest().encode())
    return raw.decode()


def _parse_samples(base: str, rel_path: str, rec_id: str, digest) -> np.ndarray:
    try:
        text = _read(os.path.join(base, rel_path), digest, rel_path)
    except OSError as exc:
        raise DataFormatError(f"record {rec_id}: cannot read sample file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"record {rec_id}: sample file is not UTF-8: {exc}") from exc
    tokens = text.split()
    try:
        samples = np.array(tokens, dtype=float)
    except ValueError:
        bad = next((tok for tok in tokens if not _is_float(tok)), "?")
        raise DataFormatError(f"record {rec_id}: malformed sample row {bad!r}") from None
    if samples.size < 2:
        raise DataFormatError(f"record {rec_id}: sample file has fewer than 2 samples")
    if not np.all(np.isfinite(samples)):
        raise DataFormatError(f"record {rec_id}: non-finite sample value")
    return samples


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def load_dataset(manifest_path: str, digest=None) -> list:
    """Read a manifest and every referenced sample file, validating both.

    Each file is read once. When digest (a hashlib object) is given, it is
    fed hashes of the very bytes that were parsed: the manifest's sha256 hex
    digest, then each sample file's manifest path and sha256 hex digest, in
    manifest order.
    """
    try:
        doc = json.loads(_read(manifest_path, digest))
    except OSError as exc:
        raise DataFormatError(f"cannot read manifest: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataFormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise DataFormatError("manifest must be a JSON array of record rows")
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = []
    for i, row in enumerate(doc):
        if not isinstance(row, dict) or set(row) != set(MANIFEST_KEYS):
            raise DataFormatError(
                f"manifest row {i} must have exactly the keys {list(MANIFEST_KEYS)}"
            )
        rec_id = row["id"]
        if not isinstance(rec_id, str) or not rec_id:
            raise DataFormatError(f"manifest row {i}: id must be a nonempty string")
        if row["state"] not in ("baseline", "damage"):
            raise DataFormatError(f"record {rec_id}: unknown state {row['state']!r}")
        for key, kind in _MANIFEST_KINDS.items():
            if not FIELD_KINDS[kind](row[key]):
                raise DataFormatError(
                    f"record {rec_id}: {key} must be {kind}, got {row[key]!r}"
                )
        if not isinstance(row["path"], str) or not row["path"]:
            raise DataFormatError(f"record {rec_id}: path must be a nonempty string")
        samples = _parse_samples(base, row["path"], rec_id, digest)
        records.append(
            SignalRecord(
                id=rec_id,
                actuator_id=row["actuator_id"],
                sensor_id=row["sensor_id"],
                temperature_c=float(row["temperature_c"]),
                state=row["state"],
                severity=float(row["severity"]),
                sample_rate_hz=float(row["sample_rate_hz"]),
                samples=samples,
                path=row["path"],
            )
        )
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        dupe = next(v for v in ids if ids.count(v) > 1)
        raise DataFormatError(f"duplicate record id {dupe!r} in manifest")
    lengths = {r.samples.size for r in records}
    if len(lengths) > 1:
        raise DataFormatError(
            f"records disagree on sample count ({sorted(lengths)}); "
            "a file is truncated or the dataset is mixed"
        )
    return records


def scenario_to_dict(config: ScenarioConfig) -> dict:
    d = asdict(config)
    d["echoes"] = [list(e) for e in config.echoes]
    d["damage_echo"] = list(config.damage_echo)
    if d["noise_snr_db"] is not None and math.isinf(d["noise_snr_db"]):
        d["noise_snr_db"] = None
    return d


# JSON value kind of each ScenarioConfig field; the optional ones may be null.
# Value ranges other than the seed's are checked by _validate_config.
_SCENARIO_KINDS = {
    "carrier_freq_hz": "a finite number", "n_cycles": "an integer",
    "amplitude": "a finite number", "n_transducers": "an integer",
    "temperatures_c": "a list of finite numbers",
    "echoes": "a list of finite number pairs",
    "temp_stretch_per_c": "a finite number", "temp_gain_per_c": "a finite number",
    "temp_jitter_c": "a finite number", "damage_severities": "a list of finite numbers",
    "damage_echo": "two finite numbers", "damage_temperatures_c": "a list of finite numbers",
    "noise_snr_db": "a finite number", "n_repeats": "an integer",
    "sample_rate_hz": "a finite number", "n_samples": "an integer", "seed": "an integer",
}
_OPTIONAL_FIELDS = {"damage_temperatures_c", "noise_snr_db"}


def scenario_from_dict(d: dict) -> ScenarioConfig:
    known = {f for f in ScenarioConfig.__dataclass_fields__}
    extra = set(d) - known
    if extra:
        raise DataFormatError(f"unknown scenario fields: {sorted(extra)}")
    check_fields(d, "scenario", _SCENARIO_KINDS, {"seed": NON_NEGATIVE}, _OPTIONAL_FIELDS)
    kwargs = dict(d)
    if "echoes" in kwargs:
        kwargs["echoes"] = [tuple(e) for e in kwargs["echoes"]]
    if "damage_echo" in kwargs:
        kwargs["damage_echo"] = tuple(kwargs["damage_echo"])
    config = ScenarioConfig(**kwargs)
    _validate_config(config)
    return config


def reference_scenario(seed: int = 0, with_damage: bool = False) -> ScenarioConfig:
    """The tuned default scenario used throughout the docs and tests.

    Baselines cover five oven temperatures; damage, when enabled, is four
    severities recorded at the lowest temperature only, mirroring a test
    campaign where defects are introduced at ambient conditions.

    Sampling keeps the excitation inside the deepest approximation band
    (rate / 2^9 = 100 kHz > carrier), so the selected features track the
    burst itself; echo delays are plate-scale reverberation paths.
    """
    config = ScenarioConfig(
        seed=seed,
        sample_rate_hz=51.2e6,
        n_samples=16384,
        echoes=[(60e-6, 1.00), (110e-6, 0.55), (170e-6, 0.30), (240e-6, 0.18)],
        damage_echo=(140e-6, 0.02),
        n_repeats=36,
        noise_snr_db=60.0,
        temp_gain_per_c=0.012,
        temp_jitter_c=0.3,
    )
    if with_damage:
        config.damage_severities = [1.0, 2.0, 3.0, 4.0]
        config.damage_temperatures_c = [min(config.temperatures_c)]
    return config
