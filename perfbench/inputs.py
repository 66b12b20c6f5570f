"""Seeded inputs: the corpus, the delta stream and the read mix.

Everything the system under test receives is made here from the run's
``--seed``; the same seed gives the same corpus file, the same deltas
and the same requests.  Generation is benchmark-side work and runs
outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict
from pathlib import Path

from repro.core import CorpusDelta
from repro.data import Blogger, Comment, Link, Post
from repro.synth import DOMAIN_VOCABULARIES, BlogosphereConfig
from repro.synth.stream import stream_blogosphere

CONFIG = BlogosphereConfig(num_bloggers=10_000, posts_per_blogger=3.0)
DOMAINS = tuple(sorted(DOMAIN_VOCABULARIES))

# Corpus files kept in the cache directory; older ones are pruned.
CACHE_KEEP = 6

# Read mix: (kind, share).  The shares follow benchmarks/
# bench_service2.py's singles mix, which sends /top, /top?domain=,
# /query and /blogger/<id> in equal parts; /query/batch takes the
# small share the workload definition asks for (5%, an assumption, not
# a measured traffic share).  ``query`` carries fresh random Eq. 5
# weights, so it misses the engine cache and scans every blogger.
# ``top`` and ``top_domain`` draw from the 11 top-k lists the snapshot
# holds (general + one per domain), so they hit the cache.
READ_MIX = (("query", 0.2375), ("top", 0.2375), ("top_domain", 0.2375),
            ("blogger", 0.2375), ("batch", 0.05))
MIX_BLOCK = 80
HIT_KINDS = ("top", "top_domain")
# A batch carries BATCH_ITEMS items laid out as bench_service2's batch
# mix: every third item an Eq. 5 query (here with fresh weights, so a
# scan), the others alternating top-k by domain and general top-k.
BATCH_ITEMS = 8
READ_K = 10

# Delta stream: every block of four deltas is three "local" ones (posts
# and comments by existing bloggers) followed by one "growing" one (a
# new blogger plus links, which moves GL and forces the full solve
# path).  A local delta has bench_incremental's shape: LOCAL_POSTS
# posts, each with one comment by another existing blogger.
DELTA_BLOCK = 4
LOCAL_POSTS = 5


def _source_digest(repo_root: Path) -> str:
    """Hash of the generator and columnar-writer sources."""
    digest = hashlib.sha256()
    for package in ("synth", "store"):
        for path in sorted((repo_root / "src" / "repro" / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def corpus_file(repo_root: Path, seed: int) -> Path:
    """The ``.mcol`` corpus for ``seed``, generated on a cache miss.

    The cache key covers the seed, the generator config and the
    generator's source, so an edited generator never serves a stale
    file.
    """
    key_material = json.dumps(
        {"seed": seed, "config": asdict(CONFIG),
         "source": _source_digest(repo_root)},
        sort_keys=True,
    )
    key = hashlib.sha256(key_material.encode()).hexdigest()[:16]
    cache = repo_root / ".perfbench_cache"
    cache.mkdir(exist_ok=True)
    path = cache / f"corpus-{seed}-{key}.mcol"
    if path.exists():
        os.utime(path)
        return path
    scratch = cache / f"gen-{key}"
    scratch.mkdir(exist_ok=True)
    stream_blogosphere(path, CONFIG, seed=seed, scratch_dir=scratch)
    for leftover in scratch.iterdir():
        leftover.unlink()
    scratch.rmdir()
    # Write the new file back now, so its dirty pages are not flushed
    # in the middle of a timed window.
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())
    stale = sorted(cache.glob("corpus-*.mcol"), key=lambda p: p.stat().st_mtime)
    for old in stale[:-CACHE_KEEP]:
        old.unlink()
    return path


def _post_body(rng: random.Random, domain: str) -> str:
    words = DOMAIN_VOCABULARIES[domain]
    return " ".join(rng.choice(words) for _ in range(40))


class DeltaStream:
    """Seeded deltas that stay valid against the grown corpus.

    Ids are namespaced by seed and delta index, so they never collide
    with the generated corpus or with each other.  Bloggers added by a
    growing delta join the author/commenter pool of later deltas.
    """

    def __init__(self, blogger_ids: list[str], post_ids: list[str],
                 seed: int) -> None:
        self._rng = random.Random(f"deltas-{seed}")
        self._seed = seed
        self._bloggers = list(blogger_ids)
        self._posts = list(post_ids)
        self._index = 0

    def next(self) -> tuple[str, CorpusDelta]:
        """The next ``(kind, delta)``; kind is ``local`` or ``growing``."""
        index = self._index
        self._index += 1
        tag = f"pb{self._seed}-d{index:04d}"
        if index % DELTA_BLOCK == DELTA_BLOCK - 1:
            return "growing", self._growing(tag)
        return "local", self._local(tag)

    def _local(self, tag: str) -> CorpusDelta:
        rng = self._rng
        posts, comments = [], []
        for number in range(LOCAL_POSTS):
            author = rng.choice(self._bloggers)
            post = Post(f"{tag}-p{number}", author,
                        body=_post_body(rng, rng.choice(DOMAINS)),
                        created_day=364)
            posts.append(post)
            commenter = author
            while commenter == author:
                commenter = rng.choice(self._bloggers)
            comments.append(Comment(
                f"{tag}-c{number}", post.post_id, commenter,
                text="great post, I agree with this", created_day=364,
            ))
        self._posts.extend(post.post_id for post in posts)
        return CorpusDelta(posts=posts, comments=comments)

    def _growing(self, tag: str) -> CorpusDelta:
        rng = self._rng
        newcomer = f"{tag}-b"
        post = Post(f"{tag}-p0", newcomer,
                    body=_post_body(rng, rng.choice(DOMAINS)),
                    created_day=364)
        links = [Link(newcomer, rng.choice(self._bloggers)) for _ in range(3)]
        links.append(Link(rng.choice(self._bloggers), newcomer))
        comments = [Comment(f"{tag}-c0", rng.choice(self._posts), newcomer,
                            text="interesting, thanks for sharing",
                            created_day=364)]
        self._bloggers.append(newcomer)
        self._posts.append(post.post_id)
        return CorpusDelta(
            bloggers=[Blogger(newcomer, name=newcomer)],
            posts=[post], comments=comments, links=links,
        )


def _weights(rng: random.Random) -> dict[str, float]:
    """Eq. 5 weights over 2-3 domains, each strictly above zero."""
    chosen = rng.sample(DOMAINS, rng.randint(2, 3))
    return {domain: round(rng.uniform(0.05, 1.0), 4) for domain in chosen}


def read_request(kind: str, rng: random.Random,
                 blogger_ids: list[str]) -> dict:
    """One request of the read mix as ``{"kind", "method", "path", "body"}``."""
    if kind == "query":
        weights = ",".join(f"{d}:{w}" for d, w in _weights(rng).items())
        return {"kind": kind, "method": "GET", "body": None,
                "path": f"/query?k={READ_K}&weights={weights}"}
    if kind == "top":
        return {"kind": kind, "method": "GET", "body": None,
                "path": f"/top?k={READ_K}"}
    if kind == "top_domain":
        return {"kind": kind, "method": "GET", "body": None,
                "path": f"/top?k={READ_K}&domain={rng.choice(DOMAINS)}"}
    if kind == "blogger":
        return {"kind": kind, "method": "GET", "body": None,
                "path": f"/blogger/{rng.choice(blogger_ids)}"}
    items = []
    for number in range(BATCH_ITEMS):
        if number % 3 == 0:
            items.append({"k": READ_K, "weights": _weights(rng)})
        elif number % 3 == 1:
            items.append({"k": READ_K, "domain": rng.choice(DOMAINS)})
        else:
            items.append({"k": READ_K})
    return {"kind": kind, "method": "POST", "path": "/query/batch",
            "body": {"queries": items}}


def read_requests(seed: int, tag: str, count: int,
                  blogger_ids: list[str]) -> list[dict]:
    """``count`` requests of the read mix, seeded by ``(seed, tag)``.

    The mix is stratified: every run of 80 requests holds exactly the
    READ_MIX shares, in a seeded order, so the composition of a window
    never varies with the seed; only which request lands where does.
    """
    rng = random.Random(f"reads-{seed}-{tag}")
    block = [kind for kind, share in READ_MIX
             for _ in range(round(share * MIX_BLOCK))]
    kinds: list[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    return [read_request(kind, rng, blogger_ids) for kind in kinds[:count]]
