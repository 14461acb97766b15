"""Command-line front end for encoding, decoding, and batch experiments.

Exit codes: 0 success, 2 bad configuration or arguments, 3 I/O failure,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dizet import dizet_decode
from .huffman import (
    ModulationParams,
    autocorrelation,
    encode,
    sequence_from_csv,
    sequence_to_csv,
)
from .radar import ambiguity_function
from .simulate import (
    atomic_write_text,
    load_config,
    run_ber,
    run_cfar_calibration,
    run_radar,
    write_result,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

def parse_bit_string(text: str, num_bits: int | None = None) -> np.ndarray:
    """Parse a payload given as binary ("10", "0b10") or hex ("0x2", needs --k)."""
    text = text.strip().lower()
    if text.startswith("0x"):
        if num_bits is None:
            raise ValueError("hex bit strings need an explicit --k to fix leading zeros")
        value = int(text, 16)
        if value >> num_bits:
            raise ValueError(f"hex value {text} does not fit in {num_bits} bits")
        bits = [(value >> (num_bits - 1 - i)) & 1 for i in range(num_bits)]
        return np.asarray(bits, dtype=np.int64)
    if text.startswith("0b"):
        text = text[2:]
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bit string must be binary or 0x hex, got {text!r}")
    bits = np.asarray([int(ch) for ch in text], dtype=np.int64)
    if num_bits is not None and bits.size != num_bits:
        raise ValueError(f"bit string has {bits.size} bits but --k is {num_bits}")
    return bits


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _read_sequence(path: str) -> np.ndarray:
    if path == "-":
        return sequence_from_csv(sys.stdin.read())
    return sequence_from_csv(Path(path).read_text(encoding="utf-8"))


def _modulation(args, num_bits: int | None = None) -> ModulationParams:
    """Parameters from --k and --lambda; without --k, K is ``num_bits``."""
    return ModulationParams(num_bits=num_bits if args.k is None else args.k,
                            radius_tuning=args.lam)


def _cmd_encode(args) -> int:
    bits = parse_bit_string(args.bits, args.k)
    _emit(sequence_to_csv(encode(bits, _modulation(args, bits.size))), args.out)
    return EXIT_OK


def _cmd_decode(args) -> int:
    samples = _read_sequence(args.input)
    bits, margins = dizet_decode(samples, _modulation(args))
    doc = {
        "bits": "".join(str(int(b)) for b in bits),
        "margins": [float(m) for m in margins],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_autocorr(args) -> int:
    if args.bits is not None:
        bits = parse_bit_string(args.bits, args.k)
        samples = encode(bits, _modulation(args, bits.size))
    elif args.input is not None:
        samples = _read_sequence(args.input)
    else:
        raise ValueError("autocorr needs either --bits or --in")
    _emit(sequence_to_csv(autocorrelation(samples)), args.out)
    return EXIT_OK


def _cmd_af(args) -> int:
    if args.bits is not None:
        bits = parse_bit_string(args.bits, args.k)
    else:
        rng = np.random.default_rng(args.seed)
        bits = rng.integers(0, 2, args.k)
    params = _modulation(args)
    samples = encode(bits, params)
    max_lag = args.max_lag if args.max_lag is not None else params.num_bits
    surf = ambiguity_function(samples, max_lag, args.doppler_bins)
    lines = [
        "# ambiguity surface |AF|: rows are lags, columns are Doppler bins",
        "# lags " + " ".join(str(int(l)) for l in surf.lags),
        "# doppler_cycles_per_sample "
        + " ".join(f"{d:.9g}" for d in surf.doppler_cycles),
    ]
    for row in surf.values:
        lines.append(" ".join(f"{v:.9g}" for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    """``ber`` and ``radar``: run the experiment, write <command>.csv and its summary."""
    cfg = load_config(args.config, args.overrides)
    result = args.run(cfg)
    csv_path, json_path = write_result(result, args.out, args.command, cfg)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _cmd_calibrate_cfar(args) -> int:
    cfg = load_config(args.config, args.overrides)
    result = run_cfar_calibration(cfg)
    text = result.to_json() + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        write_result(result, args.out, "cfar", cfg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moczsim",
        description="Zero-pattern modulation simulator: encode, decode, and run experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_modulation(p, k_required=True):
        p.add_argument("--k", type=int, required=k_required, help="bits per packet")
        p.add_argument("--lambda", dest="lam", type=float,
                       default=ModulationParams.radius_tuning,
                       help="radius tuning constant in (0, 1)")

    p = sub.add_parser("encode", help="emit the transmit sequence CSV for a bit string")
    add_modulation(p, k_required=False)
    p.add_argument("--bits", required=True, help="binary ('10', '0b10') or hex ('0x2' with --k)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a sequence CSV and print bits plus margins as JSON")
    add_modulation(p)
    p.add_argument("input", help="sequence CSV path, or '-' for stdin")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("autocorr", help="emit the autocorrelation CSV of a message or sequence")
    add_modulation(p, k_required=False)
    p.add_argument("--bits", help="payload bits (as in encode)")
    p.add_argument("--in", dest="input", help="sequence CSV path instead of --bits")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_autocorr)

    p = sub.add_parser("af", help="emit a lag x Doppler ambiguity grid (gnuplot-style)")
    add_modulation(p)
    p.add_argument("--bits", help="payload bits; defaults to a seeded random message")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-lag", type=int, default=None)
    p.add_argument("--doppler-bins", type=int, default=128)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_af)

    def add_run_common(p):
        p.add_argument("--config", required=True, help="JSON configuration path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="set a config key, e.g. cfar.pfa=1e-3 (repeatable)")

    p = sub.add_parser("ber", help="run a bit-error-rate sweep from a config file")
    add_run_common(p)
    p.set_defaults(func=_cmd_run, run=run_ber)

    p = sub.add_parser("radar", help="run the radar detection/estimation experiment")
    add_run_common(p)
    p.set_defaults(func=_cmd_run, run=run_radar)

    p = sub.add_parser("calibrate-cfar", help="measure the noise-only false-alarm rate")
    add_run_common(p)
    p.set_defaults(func=_cmd_calibrate_cfar, out=None)  # without --out, stdout only

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes json.JSONDecodeError
        print(f"moczsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"moczsim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"moczsim: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
