"""Seeded input generators for the benchmark.

Everything here depends only on the seed and on the fixed shapes below, never
on apicheck or on the repository's test helpers, so edits elsewhere cannot
shift the benchmark's inputs. Shapes (name lengths, vocabulary size, tree
shapes, corruption counts) are fixed across seeds; the seed picks the words,
letters and order. That keeps the cost of one run nearly the same for every
seed while the content differs.

Calls are plain tuples ``(function, ((arg, value), ...))`` where a value is a
``str`` or a nested call. ``canonical`` renders them in the documented
canonical syntax (single spaces between tokens).
"""

from __future__ import annotations

import json
import random
import string

# -- fixed shapes ---------------------------------------------------------------

V_LARGE = 32_000  # token count of the large vocab, end-of-sequence included
V_SMALL = 50
LONGEST_NAME = 22  # e.g. GET_ESTIMATED_DURATION
N_FUNCTIONS = 40
N_ARGUMENTS = 80
N_TOY_SPECS = 64
N_PAIRS = 60
POOL_SIZE = 5_000
N_QUERIES = 256

NAME_WORDS = {
    3: "GET SET ADD END DAY WAY CAR BUS MAP SKY SUN TOP NEW OLD HOT RUN MIX LOW",
    4: "SEND PLAY STOP TIME DATE NAME TYPE ROAD TRIP SONG LIST INFO RAIN SNOW WIND HOME "
    "WORK MODE UNIT TEXT NEXT LAST",
    5: "ALARM EVENT TIMER MUSIC ROUTE TRACK MEDIA PAUSE RESET GROUP TITLE GENRE PLACE "
    "POINT DELAY RADIO ALBUM VENUE CHECK LEAVE",
    6: "CREATE DELETE UPDATE SOURCE METHOD ARTIST PERIOD REPEAT SEARCH RESUME SNOOZE "
    "ARRIVE TRAVEL PERSON AMOUNT MINUTE SECOND",
    7: "WEATHER TRAFFIC ADDRESS CONTENT MESSAGE SILENCE CONTACT STATION SUBJECT PODCAST "
    "CHANNEL COMPANY ARRIVAL CONVERT PRESENT RECEIVE",
    8: "DURATION PLAYLIST REMINDER LOCATION ESTIMATE DISTANCE CATEGORY ATTENDEE FREQUENT "
    "SCHEDULE POSITION RELATION FORECAST ORGANIZE",
    9: "ESTIMATED DEPARTURE RECIPIENT ATTENDEES RECURRING CONDITION AVOIDANCE ATTRIBUTE "
    "SELECTION DIRECTION",
    10: "NAVIGATION RECURRENCE ATTENDANCE CONVERSION PREFERENCE DEPARTMENT DIRECTIONS "
    "RESTAURANT EXPIRATION",
    11: "DESTINATION TEMPERATURE OBSTRUCTION INFORMATION APPOINTMENT ENVIRONMENT",
}
NAME_WORDS = {n: words.split() for n, words in NAME_WORDS.items()}
VERB_LENGTHS = (3, 4, 6)

UTTERANCE_WORDS = (
    "alarm alarms am april at band bus by call cancel car city cold concert dad "
    "delete dinner downtown drive early evening every friday from gym heavy home "
    "hour how jazz john kids late leave lunch march meeting message mom monday "
    "morning movie music news next night noon office park party play playlist "
    "pm radio rain remind reminder road rock route school send set show snow song "
    "songs station stop store sunny sunday text the timer today tomorrow traffic "
    "train trip tuesday walk warm weather week weekend when work"
).split()
CARRIER_WORDS = "please can you i want to for me my a about what is".split()


def _shape_rng() -> random.Random:
    """The generator of the fixed shapes; deliberately not the workload seed."""
    return random.Random("perfbench-shapes-v1")


def _name_templates() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Word-length templates for function and argument names (seed-independent)."""
    rng = _shape_rng()
    lengths = sorted(NAME_WORDS)
    functions = [(3, 9, 8)]  # the longest name, LONGEST_NAME characters
    while len(functions) < N_FUNCTIONS:
        words = (rng.choice(VERB_LENGTHS),) + tuple(
            rng.choice(lengths) for _ in range(rng.randint(1, 2))
        )
        if sum(words) + len(words) - 1 <= 18:  # one long name carries the exponential build cost
            functions.append(words)
    arguments = []
    while len(arguments) < N_ARGUMENTS:
        words = tuple(rng.choice(lengths) for _ in range(rng.randint(1, 2)))
        if sum(words) + len(words) - 1 <= 16:
            arguments.append(words)
    return functions, arguments


def _fill_names(rng: random.Random, templates: list[tuple[int, ...]], taken: set[str]) -> list[str]:
    names = []
    for template in templates:
        while True:
            name = "_".join(rng.choice(NAME_WORDS[n]) for n in template)
            if name not in taken:
                break
        taken.add(name)
        names.append(name)
    return names


def topv2_spec(seed: int) -> dict:
    """A TOPv2-style spec: 40 functions, 80 arguments, 2-4 arguments per function."""
    rng = random.Random(f"spec-{seed}")
    fn_templates, arg_templates = _name_templates()
    taken: set[str] = set()
    functions = _fill_names(rng, fn_templates, taken)
    arguments = _fill_names(rng, arg_templates, taken)
    shape = _shape_rng()
    associations = {
        f: sorted(rng.sample(arguments, shape.randint(2, 4))) for f in functions
    }
    return {
        "functions": sorted(functions),
        "arguments": sorted(arguments),
        "associations": dict(sorted(associations.items())),
    }


def large_vocab(seed: int, spec: dict) -> list[str]:
    """BPE-like texts, V_LARGE - 1 of them; the end-of-sequence token is appended on write.

    Holds every printable ASCII character, every 1-3 character piece of every
    name, boundary-spanning structural tokens, the utterance words with and
    without a leading space, and random lowercase fillers (half of them with a
    leading space, as byte-level BPE vocabs have).
    """
    rng = random.Random(f"vocab-{seed}")
    names = spec["functions"] + spec["arguments"]
    texts = {chr(c) for c in range(32, 127)}
    for name in names:
        for size in (1, 2, 3):
            texts.update(name[i : i + size] for i in range(len(name) - size + 1))
    texts.update([" ( ", " )", " , ", " = ", ' = "', '" )', '" , ', "( ", ") ", ", "])
    texts.update(UTTERANCE_WORDS)
    texts.update(" " + w for w in UTTERANCE_WORDS)
    for name in spec["functions"]:
        texts.update([name[-1:] + " (", name[-2:] + " (", name[-3:] + " ( "])
    for name in spec["arguments"]:
        texts.update([name[-1:] + " =", name[-1:] + " = ", name[-2:] + ' = "'])
    filler_lengths = (3, 4, 4, 5, 5, 5, 6, 6, 7, 8)
    i = 0
    while len(texts) < V_LARGE - 1:
        size = filler_lengths[i % len(filler_lengths)]
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(size))
        if i % 2:
            word = " " + word
        if word not in texts:
            texts.add(word)
            i += 1
    ordered = sorted(texts)
    rng.shuffle(ordered)
    return ordered


def toy_specs(seed: int) -> list[tuple[dict, list[str]]]:
    """Small specs over a 12-letter alphabet, each with a char-plus-spanning vocab of V_SMALL."""
    rng = random.Random(f"toy-{seed}")
    out = []
    for _ in range(N_TOY_SPECS):
        letters = rng.sample(string.ascii_uppercase, 12)
        alphabet = letters + ["_"]
        taken: set[str] = set()

        def name(size: int) -> str:
            while True:
                text = rng.choice(letters) + "".join(rng.choice(alphabet) for _ in range(size - 1))
                if text not in taken:
                    taken.add(text)
                    return text

        functions = [name(n) for n in (3, 4, 5, 6)]
        arguments = [name(n) for n in (2, 3, 3, 4, 5, 6)]
        associations = {
            f: sorted(rng.sample(arguments, k)) for f, k in zip(functions, (1, 2, 3, 2))
        }
        used = sorted(set().union(*associations.values()))
        spec = {
            "functions": sorted(functions),
            "arguments": used,
            "associations": dict(sorted(associations.items())),
        }
        chars = set("".join(functions + used)) | set(' (),="') | set("abcdefgh") | {"\\"}
        spans = {" ( ", " )", '" )', ' = "', " , "}
        spans.update(f[-2:] + " (" for f in functions)
        spans.update(a[-1:] + " = " for a in used)
        texts = chars | spans
        while len(texts) < V_SMALL - 1:
            texts.add("".join(rng.choice("abcdefgh") for _ in range(2)))
        ordered = sorted(texts)
        rng.shuffle(ordered)
        out.append((spec, ordered))
    return out


# -- calls -------------------------------------------------------------------------


def escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def canonical(call, sep=None) -> str:
    """Render a call; ``sep(i)`` gives the whitespace before token i (default: one space)."""
    tokens: list[str] = []

    def visit(c) -> None:
        function, args = c
        tokens.extend([function, "("])
        for i, (name, value) in enumerate(args):
            if i:
                tokens.append(",")
            tokens.extend([name, "="])
            if isinstance(value, str):
                tokens.append('"' + escape(value) + '"')
            else:
                visit(value)
        tokens.append(")")

    visit(call)
    if sep is None:
        return " ".join(tokens)
    return tokens[0] + "".join(sep(i) + t for i, t in enumerate(tokens[1:], 1))


def nodes(call) -> list:
    """Pre-order list of (call, parent_arg_index_path) for every call in the tree."""
    out = []

    def visit(c, path) -> None:
        out.append((c, path))
        for i, (_name, value) in enumerate(c[1]):
            if not isinstance(value, str):
                visit(value, path + (i,))

    visit(call, ())
    return out


def replace_at(call, path, fn):
    """Copy of ``call`` with the node at ``path`` replaced by ``fn(node)``."""
    if not path:
        return fn(call)
    function, args = call
    i = path[0]
    name, value = args[i]
    new_args = args[:i] + ((name, replace_at(value, path[1:], fn)),) + args[i + 1 :]
    return (function, new_args)


def words_value(rng: random.Random) -> str:
    """A slot value of one to three utterance words; one in twenty also has a quote and a backslash."""
    words = [rng.choice(UTTERANCE_WORDS) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.05 and len(words) < 3:
        words.append('"hi" \\ x')  # at most 26 characters, under the 32-character cap
    return " ".join(words)


def two_words(rng: random.Random) -> str:
    return f"{rng.choice(UTTERANCE_WORDS)} {rng.choice(UTTERANCE_WORDS)}"


def toy_value(rng: random.Random) -> str:
    """A string of up to six characters over the toy vocabs' string alphabet."""
    return "".join(rng.choice("abcdefgh ") for _ in range(rng.randint(0, 6)))


def random_call(rng: random.Random, spec: dict, depth: int, value=words_value, width=None):
    """A call whose nesting is exactly ``depth`` levels deep (root counts as 1).

    Each call gets ``width`` arguments (fewer if its function has fewer), or a
    random number of them when ``width`` is None.
    """
    function = rng.choice(spec["functions"])
    allowed = spec["associations"][function]
    count = rng.randint(1, len(allowed)) if width is None else min(width, len(allowed))
    names = rng.sample(allowed, count)
    nested_at = rng.randrange(len(names)) if depth > 1 else -1
    args = []
    for i, name in enumerate(names):
        if i == nested_at:
            args.append((name, random_call(rng, spec, depth - 1, value, width)))
        else:
            args.append((name, value(rng)))
    return (function, tuple(args))


# -- score pairs -------------------------------------------------------------------

KINDS = ("exact", "whitespace", "wrong_function", "wrong_argument", "wrong_association", "unparseable")


def score_pairs(seed: int, spec: dict) -> list[dict]:
    """N_PAIRS gold/prediction pairs with known corruption labels and expected scores.

    Each record holds ``gold``, ``predicted``, ``kind``, the expected constraint
    bits ``bits`` and the expected intent/slot counts ``intent``/``slot`` as
    (true positives, false positives, false negatives).
    """
    rng = random.Random(f"pairs-{seed}")
    kinds = [KINDS[i % len(KINDS)] for i in range(N_PAIRS)]
    rng.shuffle(kinds)
    all_args = set(spec["arguments"])
    bad_fn = "ZZ_UNKNOWN_FUNCTION"
    bad_arg = "ZZ_UNKNOWN_ARGUMENT"
    out = []
    for i, kind in enumerate(kinds):
        gold = random_call(rng, spec, depth=1 + i % 3)
        tree = nodes(gold)
        n_intents = len(tree)
        n_slots = sum(len(c[1]) for c, _ in tree)
        intent = (n_intents, 0, 0)
        slot = (n_slots, 0, 0)
        bits = (1, 1, 1, 1)
        text = canonical(gold)
        if kind == "whitespace":
            gaps = ["", " ", "  ", "\t", " \t "]
            text = canonical(gold, sep=lambda _i: rng.choice(gaps))
        elif kind == "wrong_function":
            node, path = rng.choice(tree)
            text = canonical(replace_at(gold, path, lambda c: (bad_fn, c[1])))
            intent = (n_intents - 1, 1, 1)
            if path:
                slot = (n_slots - 1, 1, 1)
            bits = (1, 0, 1, 0 if node[1] else 1)
        elif kind in ("wrong_argument", "wrong_association"):
            node, path = rng.choice(tree)
            j = rng.randrange(len(node[1]))
            if kind == "wrong_argument":
                new_name, bits = bad_arg, (1, 1, 0, 0)
            else:
                choices = sorted(all_args - set(spec["associations"][node[0]]))
                new_name, bits = rng.choice(choices), (1, 1, 1, 0)

            def rename(c, j=j, new_name=new_name):
                args = list(c[1])
                args[j] = (new_name, args[j][1])
                return (c[0], tuple(args))

            text = canonical(replace_at(gold, path, rename))
            slot = (n_slots - 1, 1, 1)
        elif kind == "unparseable":
            text = text[: rng.randint(1, len(text) - 1)].rstrip() or text[0]
            intent = (0, 0, n_intents)
            slot = (0, 0, n_slots)
            bits = (0, 0, 0, 0)
        out.append({
            "gold": canonical(gold),
            "predicted": text,
            "kind": kind,
            "bits": bits,
            "intent": intent,
            "slot": slot,
        })
    return out


def micro_f1(counts) -> float:
    """Micro-averaged F1 from (tp, fp, fn) triples, with the documented edge cases."""
    tp = sum(c[0] for c in counts)
    fp = sum(c[1] for c in counts)
    fn = sum(c[2] for c in counts)
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if tp + fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def expected_score_output(pairs: list[dict]) -> tuple[list[str], str, str]:
    """(per-line signature prefixes, rates summary, eval report) the CLI must print."""
    n = len(pairs)
    sigs = [" ".join(map(str, p["bits"])) for p in pairs]
    rates = [sum(1 for p in pairs if p["bits"][b] == 0) / n for b in range(4)]
    summary = "\n".join(
        f"{label} violation rate: {r * 100:.2f}%"
        for label, r in zip(("C_s", "C_f", "C_a", "C_fa"), rates)
    )
    em = sum(1 for p in pairs if p["kind"] in ("exact", "whitespace")) / n
    report = (
        f"examples: {n}\n"
        f"exact match: {em:.4f}\n"
        f"intent F1: {micro_f1([p['intent'] for p in pairs]):.4f}\n"
        f"slot F1: {micro_f1([p['slot'] for p in pairs]):.4f}\n"
        f"{summary}\n"
    )
    return sigs, summary, report


# -- TOP pool ----------------------------------------------------------------------


def _top_example(rng: random.Random, spec: dict, depth: int):
    """(utterance words, TOP string, call) for one random intent tree."""
    function = rng.choice(spec["functions"])
    allowed = spec["associations"][function]
    names = rng.sample(allowed, rng.randint(1, len(allowed)))
    nested_at = rng.randrange(len(names)) if depth > 1 and rng.random() < 0.5 else -1
    words = [rng.choice(CARRIER_WORDS) for _ in range(rng.randint(1, 3))]
    top = [f"[IN:{function}"] + list(words)
    args = []
    for i, name in enumerate(names):
        if i == nested_at:
            sub_words, sub_top, sub_call = _top_example(rng, spec, depth - 1)
            words += sub_words
            top += [f"[SL:{name}", sub_top, "]"]
            args.append((name, sub_call))
        else:
            value = [rng.choice(UTTERANCE_WORDS) for _ in range(rng.randint(1, 3))]
            carrier = rng.choice(CARRIER_WORDS)
            words += [carrier] + value
            top += [carrier, f"[SL:{name}"] + value + ["]"]
            args.append((name, " ".join(value)))
    top.append("]")
    return words, " ".join(top), (function, tuple(args))


def top_pool(seed: int, spec: dict) -> tuple[list[dict], list[str]]:
    """POOL_SIZE TOP records (with the expected ``call``) and N_QUERIES test utterances.

    One record in twenty repeats an earlier utterance under a new id, and one
    query in eight is a pool utterance, so ties in similarity occur and the
    ascending-id tie-break is exercised.
    """
    rng = random.Random(f"pool-{seed}")
    pool = []
    for i in range(POOL_SIZE):
        words, top, call = _top_example(rng, spec, depth=1 + i % 3)
        if pool and i % 20 == 19:
            src = pool[rng.randrange(len(pool))]
            words, top, call = src["utterance"].split(), src["top_parse"], src["call"]
        pool.append({
            "id": f"ex{i:05d}",
            "domain": "synthetic",
            "utterance": " ".join(words),
            "top_parse": top,
            "call": call,
        })
    queries = []
    for i in range(N_QUERIES):
        if i % 8 == 7:
            queries.append(pool[rng.randrange(POOL_SIZE)]["utterance"])
        else:
            queries.append(" ".join(_top_example(rng, spec, depth=1 + i % 3)[0]))
    return pool, queries


# -- file writers --------------------------------------------------------------------


def write_spec(path, spec: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_vocab(path, texts: list[str]) -> int:
    """Write the TSV vocab (ids in list order, end-of-sequence last); returns the eos id."""
    eos = len(texts)
    escapes = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"eos_id\t{eos}\n")
        for tid, text in enumerate(texts):
            fh.write(f"{tid}\t{''.join(escapes.get(c, c) for c in text)}\n")
        fh.write(f"{eos}\t\n")
    return eos


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
