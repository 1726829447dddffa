"""Command line front end: run a card deck or type at an interactive prompt."""

import argparse
import signal
import sys

from .charset import CharsetError
from .iosys import PAGE_EJECT
from .session import Session, SessionConfig


def non_negative_int(text):
    """argparse type of --max-steps: an int that is 0 or more."""
    steps = int(text)
    if steps < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {steps}")
    return steps


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reca",
        description="Compile and run card-deck expression programs.",
    )
    parser.add_argument("deck", nargs="?", help="deck file; omit for a prompt")
    parser.add_argument("--width", type=int, choices=(80, 120), default=120,
                        help="printer line width")
    parser.add_argument("--no-echo", action="store_true",
                        help="suppress the source listing")
    parser.add_argument("--max-steps", type=non_negative_int, default=None,
                        help="interrupt any single execution after N steps")
    parser.add_argument("--punch", metavar="FILE", default=None,
                        help="write card-punch output to FILE")
    parser.add_argument("--listing-always", action="store_true",
                        help="print the object listing of every program")
    parser.add_argument("--strict-charset", action="store_true",
                        help="reject characters outside the machine set")
    return parser


def _print_line(unit, text):
    if unit == 2:
        return  # punched cards are collected, not printed
    if text == PAGE_EJECT:
        print()
    else:
        print(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = SessionConfig(
        width=args.width,
        echo=not args.no_echo,
        max_steps=args.max_steps,
        listing_always=args.listing_always,
        strict_charset=args.strict_charset,
    )
    if args.deck is not None:
        try:
            with open(args.deck, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"reca: cannot read deck: {exc}", file=sys.stderr)
            return 2
        sess = Session(cards=lines, config=config, on_line=_print_line)
    else:
        def prompt():
            try:
                return input("| ")
            except EOFError:
                return None

        sess = Session(keyboard=prompt, config=config, on_line=_print_line)

    def on_interrupt(signum, frame):
        sess.cancelled = True

    previous = signal.signal(signal.SIGINT, on_interrupt)
    try:
        status = sess.run()
    except CharsetError as exc:
        print(f"reca: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGINT, previous)
    for note in sess.reader.diagnostics:
        print(f"reca: {note}", file=sys.stderr)

    if args.punch is not None:
        try:
            with open(args.punch, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in sess.punch)
        except OSError as exc:
            print(f"reca: cannot write punch file: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
