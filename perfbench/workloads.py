"""Seeded workload generator for the benchmark.

Every sample is synthesised from the package's own fixtures and demo banks
(English FoCus text, CIMA tutoring turns, PsyQA counselling clauses), so each
one has its own dialogue text and candidate pools while templates and demo
banks stay shared, as in real runs. A generation pass then drives the real
pipelines with a scripted backend: each model output is decided here, and
the pass records the replay fixture line for every request together with the
record the pipeline produced. That record is the reference the timed run is
checked against.

Run as a script to write one shard of a pool (this keeps the generation
pass out of the measuring process, so nothing it fills can be reused by the
timed run); `merge` joins the shards:

    python3 perfbench/workloads.py --workload focus-replay --seed 1 \
        --samples 400 --shard 0/2 --out .perfbench-work/pool-0
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from collections import deque
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from conductor.backend import Backend, CompletionRequest, Generation, request_hash
from conductor.core import SchemaKind
from conductor.data import export_records, load_dataset, select_demonstrations
from conductor.errors import ReplayMiss
from conductor.pipelines import Method, MethodConfig, run_method
from conductor.profiles import profile_for

MODEL = "gpt-3.5-turbo"
FOCUS_METHODS = ("tpe", "cot", "react", "rewoo", "chameleon")
STRATEGY_METHODS = ("tpe", "cot", "react", "chameleon", "cuecot")
# Pairs with no template or demo bank: configuration errors, not load.
UNSUPPORTED = (("cuecot", "focus"), ("rewoo", "cima"), ("rewoo", "psyqa"))

# workload -> ((kind, methods), ...); samples are split evenly over the
# (kind, method) streams
WORKLOADS = {
    "focus-replay": (("focus", FOCUS_METHODS),),
    "strategy-replay": (("cima", STRATEGY_METHODS), ("psyqa", STRATEGY_METHODS)),
    "live-sim": (("focus", ("tpe",)),),
}

_WORD = re.compile(r"[A-Za-z][a-z]+")
_CJK_CLAUSE = re.compile(r"[^，。？！、；]+")
_SYLLABLES = (
    "ka", "lor", "ven", "thi", "mar", "dos", "qui", "bel", "zan", "rho", "tis",
    "gar", "wen", "pol", "ux", "fi", "dra", "mol", "sen", "tar", "vik", "ebb",
)
_ASPECTS = (
    "geography", "history", "climate", "population", "architecture",
    "economy", "wildlife", "culture", "language", "cuisine",
)


# ---------------------------------------------------------------------------
# Text material taken from the package


def _package_lines(*parts: str) -> list[dict]:
    text = resources.files("conductor").joinpath(*parts).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _demo_texts(kind: SchemaKind, methods: tuple[str, ...]) -> list[str]:
    texts: list[str] = []
    for method in methods:
        for demo in select_demonstrations(kind, method):
            texts.extend(
                t
                for t in (
                    demo.dialogue_text,
                    demo.thought_text,
                    demo.plan_text,
                    demo.response_text,
                )
                if t
            )
    return texts


class Material:
    """Word and clause vocabularies drawn from fixtures and demo banks."""

    def __init__(self) -> None:
        english: list[str] = _demo_texts(SchemaKind.FOCUS, FOCUS_METHODS)
        for sample in _package_lines("fixtures", "focus_samples.jsonl"):
            english.extend(sample["persona_candidates"] + sample["document_candidates"])
        self.english = sorted({w.lower() for t in english for w in _WORD.findall(t)})

        cima: list[str] = _demo_texts(SchemaKind.CIMA, STRATEGY_METHODS)
        for sample in _package_lines("fixtures", "cima_samples.jsonl"):
            cima.extend(turn["text"] for turn in sample["dialogue"])
        self.cima = sorted({w.lower() for t in cima for w in _WORD.findall(t)})

        clauses = set()
        for text in _demo_texts(SchemaKind.PSYQA, STRATEGY_METHODS):
            for segment in text.split("\t"):
                segment = segment.partition(": ")[2] or segment
                clauses.update(
                    c for c in _CJK_CLAUSE.findall(segment) if _is_cjk(c[0])
                )
        self.clauses = sorted(clauses)
        self.cjk_chars = sorted({ch for c in self.clauses for ch in c if _is_cjk(ch)})
        self.english_thoughts = sorted(
            d.thought_text
            for d in select_demonstrations(SchemaKind.PSYQA, "tpe")
            + select_demonstrations(SchemaKind.CIMA, "tpe")
            if d.thought_text
        )
        self.cima_names = profile_for(SchemaKind.CIMA).strategy_toolset.names()
        self.psyqa_names = profile_for(SchemaKind.PSYQA).strategy_toolset.names()


def _is_cjk(ch: str) -> bool:
    return "一" <= ch <= "鿿"


def _words(rng: random.Random, vocab: list[str], lo: int, hi: int) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))


def _sentence(rng: random.Random, vocab: list[str], lo: int, hi: int, *keep: str) -> str:
    words = _words(rng, vocab, lo, hi).split()
    for token in keep:
        words.insert(rng.randrange(len(words) + 1), token)
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _paragraph(rng: random.Random, vocab: list[str], n_words: int, *keep: str) -> str:
    sentences = []
    count = 0
    while count < n_words:
        sentence = _sentence(rng, vocab, 6, 16, *(k for k in keep if rng.random() < 0.5))
        sentences.append(sentence)
        count += len(sentence.split())
    return " ".join(sentences)


def _perturb(rng: random.Random, text: str, vocab: list[str], rate: float) -> str:
    """A candidate response that overlaps the gold one only in part."""
    out = []
    for word in text.split():
        roll = rng.random()
        if roll < rate / 2:
            continue
        out.append(rng.choice(vocab) if roll < rate else word)
    return " ".join(out) or text


def _perturb_cjk(rng: random.Random, text: str, chars: list[str], rate: float) -> str:
    return "".join(
        rng.choice(chars) if _is_cjk(ch) and rng.random() < rate else ch for ch in text
    )


def _topic(rng: random.Random) -> str:
    return " ".join(
        "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()
        for _ in range(2)
    )


# ---------------------------------------------------------------------------
# Samples and the model outputs scripted for each method


# Candidate and response lengths are stratified by a sample's position in
# its method's stream instead of drawn independently, so every chunk of
# consecutive samples has about the same size mix and seeds differ in text,
# not in total work.
DOC_WORDS = (20, 44, 68, 92, 116, 140, 164, 188, 212, 236)
PERSONA_WORDS = (12, 20, 28, 36, 44)


def focus_sample(
    rng: random.Random, m: Material, sample_id: str, slot: int
) -> tuple[dict, dict]:
    topic = _topic(rng)
    aspect = rng.choice(_ASPECTS)
    gold_p = rng.randrange(5)
    gold_d = rng.randrange(10)
    persona_words = rng.sample(PERSONA_WORDS, len(PERSONA_WORDS))
    personas = []
    for i, n_words in enumerate(persona_words):
        if i == gold_p:
            lead = f"I am interested in {aspect} and would like to visit {topic}."
        else:
            lead = f"I am interested in {rng.choice(_ASPECTS)}."
        personas.append(lead + " " + _paragraph(rng, m.english, n_words))
    documents = []
    for i, n_words in enumerate(rng.sample(DOC_WORDS, len(DOC_WORDS))):
        name = topic if i == gold_d else _topic(rng)
        body = _paragraph(rng, m.english, n_words, name, aspect)
        documents.append(f"{name} is known for its {rng.choice(_ASPECTS)}. {body}")
    turns = []
    for i in range((1, 3, 5)[slot % 3]):
        if i % 2 == 0:
            text = f"What about the {aspect} of {topic}? " + _sentence(
                rng, m.english, 4, 20
            )
            turns.append({"speaker": "USER", "text": text})
        else:
            text = _sentence(rng, m.english, 10, 30, topic)
            turns.append({"speaker": "SYSTEM", "text": text})
    gold = _paragraph(rng, m.english, 30 + (slot * 37) % 61, topic, aspect)
    sample = {
        "id": sample_id,
        "dialogue": turns,
        "gold_response": gold,
        "persona_candidates": personas,
        "document_candidates": documents,
        "gold_persona_indices": [gold_p],
        "gold_document_index": gold_d,
    }

    def response() -> str:
        return _perturb(rng, gold, m.english, rng.uniform(0.2, 0.6))

    thought = _sentence(rng, m.english, 20, 45, topic, aspect)
    # Two samples in three search both sources, as two of the three recorded
    # FoCus React traces do (an even split would also put the median run time
    # in the gap between one- and two-index samples). Each stratified
    # property cycles on its own digit of the slot, so the properties do not
    # move together.
    two_sources = (slot // 3) % 3 != 0
    if two_sources:
        plan = (
            "Search the user's persona for what they care about.\n"
            "#So1 = PERSONA[context]\n"
            f"Plan: Search background knowledge about {topic}.\n"
            f"#So2 = DOCUMENT[{topic} #So1]"
        )
        rewoo = (
            f"Plan: Search for more information about {topic}.\n"
            f"#E1 = KNOWLEDGE[{topic} {aspect}]\n"
            "Plan: Find the user's preference related to it.\n"
            "#E2 = PERSONA[#E1]"
        )
        modules = '["Persona_Retrieval", "Knowledge_Retrieval", "Answer_Generator"]'
    else:
        plan = f"Search background knowledge about {topic}.\n#So1 = DOCUMENT[{topic}]"
        rewoo = (
            f"Plan: Search for more information about {topic}.\n"
            f"#E1 = KNOWLEDGE[{topic}]"
        )
        modules = '["Knowledge_Retrieval", "Answer_Generator"]'
    # React searches each source at most once, as the package's recorded
    # FoCus React traces do: Knowledge; Persona then Knowledge; Knowledge
    # then Persona.
    knowledge = f"Thought: I need to search for {aspect} of {topic}.\nAction: Knowledge[{topic}]"
    persona = "Thought: I should check what the user likes.\nAction: Persona[context]"
    if not two_sources:
        react = [knowledge]
    elif (slot // 9) % 2 == 0:
        react = [persona, knowledge]
    else:
        react = [knowledge, persona]
    react.append(
        f"Thought: The retrieved knowledge is related.\nAction: Finish[{response()}]"
    )
    script = {
        "tpe": [thought, plan, response()],
        "cot": [response()],
        "react": react,
        "rewoo": [rewoo, response()],
        "chameleon": [modules, response()],
    }
    return sample, script


def strategy_sample(
    rng: random.Random, m: Material, sample_id: str, slot: int, kind: str
) -> tuple[dict, dict]:
    if kind == "cima":
        user, system, names = "Student", "Teacher", m.cima_names

        def utterance() -> str:
            return _sentence(rng, m.cima, 7, 14)[:-1] + rng.choice((".", "?"))

        def fragment() -> str:
            return _sentence(rng, m.cima, 3, 12)

        def perturb(text: str) -> str:
            return _perturb(rng, text, m.cima, rng.uniform(0.2, 0.5))

        n_turns = (1, 2, 4)[slot % 3]
    else:
        user, system, names = "Seeker", "Counselor", m.psyqa_names

        def utterance() -> str:
            clauses = [rng.choice(m.clauses) for _ in range(rng.randint(3, 5))]
            return _perturb_cjk(rng, "，".join(clauses), m.cjk_chars, 0.15) + "？"

        def fragment() -> str:
            clauses = [rng.choice(m.clauses) for _ in range(rng.randint(1, 3))]
            return _perturb_cjk(rng, "，".join(clauses), m.cjk_chars, 0.1) + "。"

        def perturb(text: str) -> str:
            return _perturb_cjk(rng, text, m.cjk_chars, rng.uniform(0.2, 0.5))

        n_turns = (1, 3)[slot % 2]
    speakers = [user if (n_turns - i) % 2 == 1 else system for i in range(n_turns)]
    turns = [{"speaker": speaker, "text": utterance()} for speaker in speakers]
    strategies = [n for n in names if n != "Others"]
    plan_names = rng.sample(strategies, 1 + slot % 3)
    fragments = [fragment() for _ in plan_names]
    gold = " ".join(perturb(f) for f in fragments)
    sample = {
        "id": sample_id,
        "dialogue": turns,
        "gold_response": gold,
        "gold_strategies": list(plan_names),
    }
    thought = rng.choice(m.english_thoughts)
    plan = "\n".join(
        line
        for name, frag in zip(plan_names, fragments)
        for line in (f"Plan: {name}", f"Do: {frag}")
    )[len("Plan: ") :]
    react: list[str] = []
    for name, frag in zip(plan_names, fragments):
        react += [f"Thought: I need to use {name}.\nAction: {name}", frag]
    react += [
        "Thought: Now I combine them all into the final response\nAction: Response",
        " ".join(fragments),
    ]
    listing = "[" + ", ".join(f"'{n}'" for n in plan_names) + "]"
    script = {
        "tpe": [thought, plan],
        "cot": [perturb(gold)],
        "react": react,
        "chameleon": [listing, *fragments],
        "cuecot": [thought, perturb(gold)],
    }
    return sample, script


def make_samples(
    workload: str,
    seed: int,
    n_samples: int,
    shard: tuple[int, int] = (0, 1),
    first: int = 0,
) -> dict[tuple[str, str], list]:
    """(sample, scripted outputs) per (kind, method), for the slots from
    `first` on that belong to one shard (slot % count == index).

    Every sample is run by one method only, so no sample is seen twice in a
    run. The same seed gives the same samples, however they are sharded.
    """
    index, count = shard
    material = Material()
    streams = [(kind, method) for kind, methods in WORKLOADS[workload] for method in methods]
    per_stream = max(1, n_samples // len(streams))
    out: dict[tuple[str, str], list] = {}
    for kind, method in streams:
        pairs = []
        for slot in range(first + index, first + per_stream, count):
            rng = random.Random(f"{workload}/{seed}/{kind}/{method}/{slot}")
            sample_id = f"{kind[0]}{seed}-{method}-{slot:05d}"
            if kind == "focus":
                sample, script = focus_sample(rng, material, sample_id, slot)
            else:
                sample, script = strategy_sample(rng, material, sample_id, slot, kind)
            pairs.append((sample, script[method]))
        out[(kind, method)] = pairs
    return out


# ---------------------------------------------------------------------------
# Generation pass


def fixture_tokens(text: str) -> int:
    """Token count the scripted server reports (about four characters each)."""
    return max(1, len(text) // 4)


class ScriptedBackend(Backend):
    """Pops scripted outputs in call order and records one fixture per request.

    Generations carry the replay backend's tag and zero latency, so the
    records this pass produces are byte-identical to what a replay run of the
    recorded fixtures must produce.
    """

    def __init__(self) -> None:
        self.queue: deque[str] = deque()
        self.fixtures: dict[str, dict] = {}
        self.prompts: list[str] = []

    def complete(self, request: CompletionRequest) -> Generation:
        if not self.queue:
            raise ReplayMiss("<scripted>", request.prompt_text[:80])
        text = self.queue.popleft()
        key = request_hash(request)
        # A repeated request gets its first answer, as a recorded fixture would.
        fixture = self.fixtures.setdefault(
            key,
            {
                "hash": key,
                "model": request.model_id,
                "response": text,
                "prompt_tokens": fixture_tokens(request.prompt_text),
                "completion_tokens": fixture_tokens(text),
            },
        )
        text = fixture["response"]
        self.prompts.append(request.prompt_text)
        return Generation(
            text=text,
            prompt_tokens=fixture["prompt_tokens"],
            completion_tokens=fixture["completion_tokens"],
            latency_ms=0,
            backend_tag="replay",
            model_id=request.model_id,
        )


def shared_prompt_chars(prompts_by_sample: dict[str, list[str]]) -> tuple[int, int]:
    """(characters on prompt lines that occur in more than one sample, all
    prompt characters)."""
    owners: dict[str, str | None] = {}
    for sample_id, prompts in prompts_by_sample.items():
        for prompt in prompts:
            for line in prompt.split("\n"):
                owner = owners.setdefault(line, sample_id)
                if owner is not None and owner != sample_id:
                    owners[line] = None
    total = shared = 0
    for prompts in prompts_by_sample.values():
        for prompt in prompts:
            for line in prompt.split("\n"):
                total += len(line) + 1
                if owners[line] is None:
                    shared += len(line) + 1
    return shared, total


def generate(
    workload: str,
    seed: int,
    n_samples: int,
    out: Path,
    shard: tuple[int, int] = (0, 1),
    first: int = 0,
) -> dict:
    """Write one shard of a workload's pool (slots from `first` on) and
    return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    backend = ScriptedBackend()
    manifest: dict = {"streams": {}}
    prompts_by_sample: dict[str, list[str]] = {}
    for (kind, method), pairs in make_samples(workload, seed, n_samples, shard, first).items():
        stem = f"{kind}_{method}"
        dataset = out / f"samples_{stem}.jsonl"
        with dataset.open("w", encoding="utf-8") as handle:
            for sample, _ in pairs:
                handle.write(json.dumps(sample, ensure_ascii=False) + "\n")
        samples = load_dataset(str(dataset), SchemaKind(kind))
        config = MethodConfig(
            method=Method(method), dataset_kind=SchemaKind(kind), model_id=MODEL
        )
        records = []
        for sample, (_, script) in zip(samples, pairs):
            backend.queue.clear()
            backend.queue.extend(script)
            before = len(backend.prompts)
            record = run_method(sample, config, backend)
            if record.error is not None or backend.queue:
                raise RuntimeError(
                    f"{method}/{sample.id}: scripted run did not finish cleanly: "
                    f"{record.error}"
                )
            prompts_by_sample[sample.id] = backend.prompts[before:]
            records.append(record)
        export_records(records, str(out / f"ref_{stem}.jsonl"))
        manifest["streams"][stem] = len(samples)
    with (out / "fixtures.jsonl").open("w", encoding="utf-8") as handle:
        for fixture in backend.fixtures.values():
            handle.write(json.dumps(fixture, ensure_ascii=False) + "\n")
    manifest["prompt_chars"] = shared_prompt_chars(prompts_by_sample)
    with (out / "manifest.json").open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def merge(parts: list[Path], out: Path) -> dict:
    """Join shards written by `generate` into one pool, in slot order, with
    fixtures sorted by hash, so the pool does not depend on the sharding."""
    out.mkdir(parents=True, exist_ok=True)
    manifests = [json.loads((p / "manifest.json").read_text(encoding="utf-8")) for p in parts]
    streams: dict[str, int] = {}
    for manifest in manifests:
        for stem, count in manifest["streams"].items():
            streams[stem] = streams.get(stem, 0) + count
    for stem in streams:
        for name in (f"samples_{stem}.jsonl", f"ref_{stem}.jsonl"):
            shards = [
                (p / name).read_text(encoding="utf-8").splitlines(keepends=True)
                for p in parts
            ]
            with (out / name).open("w", encoding="utf-8") as handle:
                for row in range(max(len(lines) for lines in shards)):
                    for lines in shards:
                        if row < len(lines):
                            handle.write(lines[row])
    fixtures: dict[str, str] = {}
    for p in parts:
        for line in (p / "fixtures.jsonl").read_text(encoding="utf-8").splitlines(True):
            fixtures.setdefault(json.loads(line)["hash"], line)
    with (out / "fixtures.jsonl").open("w", encoding="utf-8") as handle:
        handle.writelines(fixtures[key] for key in sorted(fixtures))
    shared = sum(m["prompt_chars"][0] for m in manifests)
    total = sum(m["prompt_chars"][1] for m in manifests)
    return {
        "streams": streams,
        "fixtures": len(fixtures),
        "prompt_shared_share": shared / total if total else 0.0,
        "unsupported_pairs": [list(pair) for pair in UNSUPPORTED],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--shard", default="0/1", help="INDEX/COUNT of the slots to write")
    parser.add_argument("--first", type=int, default=0, help="first slot of every stream")
    args = parser.parse_args(argv)
    index, count = (int(x) for x in args.shard.split("/"))
    generate(args.workload, args.seed, args.samples, Path(args.out), (index, count), args.first)
    return 0


if __name__ == "__main__":
    sys.exit(main())
