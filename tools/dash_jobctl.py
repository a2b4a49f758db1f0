#!/usr/bin/env python3
"""Client for the dash_partyd control protocol.

Talks the one-line-in/one-line-out text protocol (see
src/service/control_server.h) to EVERY daemon named by --ports, since a
scan job must be submitted to all parties under the same job id:

    dash_jobctl.py --ports 7201,7202,7203 submit --job 1 --cohort a \
        --variants 64 --samples 96
    dash_jobctl.py --ports 7201,7202,7203 wait --job 1
    dash_jobctl.py --ports 7201,7202,7203 result --job 1
    dash_jobctl.py --ports 7201 stats

Exit code 0 only when every daemon answered `OK ...`; `wait` also
requires the job to reach state=done everywhere and all checksums to
agree. Stdlib only."""

import argparse
import socket
import sys
import time


def ask(host, port, line, timeout_s):
    """One request line -> one response line (stripped)."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall((line + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionError(f"{host}:{port} closed mid-response")
            buf += chunk
        return buf.split(b"\n", 1)[0].decode().strip()


def ask_all(args, line):
    """Sends `line` to every daemon; prints and returns the responses."""
    responses = []
    for port in args.ports:
        try:
            response = ask(args.host, port, line, args.timeout)
        except OSError as err:
            response = f"ERR Unavailable: {err}"
        print(f"{args.host}:{port} {response}")
        responses.append(response)
    return responses


def all_ok(responses):
    return all(r.startswith("OK") for r in responses)


def parse_status(response):
    """'OK state=done checksum=123 ...' -> dict (free-form error= kept)."""
    fields = {}
    body = response[3:] if response.startswith("OK ") else response
    for token in body.split():
        if "=" not in token:
            break  # error=... message text follows; stop parsing
        key, value = token.split("=", 1)
        fields[key] = value
        if key == "error":
            break
    return fields


def submit_line(args):
    line = (f"SUBMIT {args.job} {args.cohort} {args.variants} "
            f"{args.samples} {args.covariates} {args.data_seed} "
            f"{args.mode} {args.deadline_ms} {args.protocol_seed}")
    if args.stream:
        line += " stream"
    return line


def cmd_wait(args):
    """Polls STATUS on every daemon until the job settles everywhere."""
    deadline = time.monotonic() + args.timeout
    last = {}
    while time.monotonic() < deadline:
        last = {}
        settled = True
        for port in args.ports:
            try:
                response = ask(args.host, port, f"STATUS {args.job}",
                               min(5.0, args.timeout))
            except OSError as err:
                response = f"ERR Unavailable: {err}"
            last[port] = response
            state = parse_status(response).get("state")
            if state not in ("done", "failed", "cancelled"):
                settled = False
        if settled:
            break
        time.sleep(args.poll_s)
    for port, response in last.items():
        print(f"{args.host}:{port} {response}")
    states = {parse_status(r).get("state") for r in last.values()}
    checksums = {parse_status(r).get("checksum") for r in last.values()}
    if states == {"done"} and len(checksums) == 1:
        return 0
    print(f"wait: job {args.job} states={sorted(s or '?' for s in states)} "
          f"checksums={sorted(c or '?' for c in checksums)}",
          file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--ports", required=True,
                        help="comma-separated control ports, one per party")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds (per request; total for `wait`)")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("ping")
    sub.add_parser("stats")
    sub.add_parser("shutdown")

    p = sub.add_parser("submit")
    p.add_argument("--job", type=int, required=True)
    p.add_argument("--cohort", default="default")
    p.add_argument("--variants", type=int, default=64)
    p.add_argument("--samples", type=int, default=96,
                   help="samples per party")
    p.add_argument("--covariates", type=int, default=3)
    p.add_argument("--data-seed", type=int, default=7)
    p.add_argument("--mode", default="masked",
                   choices=["public", "additive", "masked"])
    p.add_argument("--deadline-ms", type=int, default=0)
    p.add_argument("--protocol-seed", type=int, default=0xDA5B)
    p.add_argument("--stream", action="store_true",
                   help="run out-of-core with checkpoint/resume (daemons "
                        "need --checkpoint-dir)")

    for verb in ("status", "result", "cancel", "wait"):
        p = sub.add_parser(verb)
        p.add_argument("--job", type=int, required=True)
        if verb == "wait":
            p.add_argument("--poll-s", type=float, default=0.2)

    p = sub.add_parser("invalidate")
    p.add_argument("--cohort", required=True)

    args = parser.parse_args()
    args.ports = [int(p) for p in args.ports.split(",") if p]

    if args.verb == "wait":
        return cmd_wait(args)

    line = {
        "ping": "PING",
        "stats": "STATS",
        "shutdown": "SHUTDOWN",
        "status": lambda: f"STATUS {args.job}",
        "result": lambda: f"RESULT {args.job}",
        "cancel": lambda: f"CANCEL {args.job}",
        "invalidate": lambda: f"INVALIDATE {args.cohort}",
        "submit": lambda: submit_line(args),
    }[args.verb]
    if callable(line):
        line = line()
    return 0 if all_ok(ask_all(args, line)) else 1


if __name__ == "__main__":
    sys.exit(main())
