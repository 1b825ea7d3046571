"""Known-good: output via return values, prints only in main()."""


def allocate(host, cores):
    return cores


def render(records):
    return "\n".join(str(r) for r in records)


def main():
    # A main() entry point may print: its output is the interface.
    print(render([]))
    for line in render([]).splitlines():
        print(line)
    return 0
