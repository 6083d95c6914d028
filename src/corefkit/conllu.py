"""CoNLL-U parsing and serialization, including coreference decoding.

The ten columns ID/FORM/LEMMA/UPOS/XPOS/FEATS/HEAD/DEPREL/DEPS/MISC are
supported with empty-node ids ``D.N`` and multiword-token ranges ``A-B``.
Documents are delimited by ``# newdoc id = ...`` comments.

Coreference lives in MISC under the ``Entity`` key as a concatenation of
bracket items: ``(eid`` opens a mention, ``eid)`` closes it, ``(eid)`` is
a single-node mention.  Discontinuous mentions mark each segment with a
part suffix: ``(eid[k/n`` opens segment k of n and ``eid[k/n])`` closes
it (``(eid[k/n])`` for a single-node segment).  Items may carry extra
``-``-separated attributes after the id; these are ignored.

Serialization is canonical: tab-joined columns, ``_`` for absent values,
FEATS/MISC keys sorted lexicographically, enhanced DEPS kept only for
empty nodes (parent:deprel).  ``parse(serialize(c))`` reproduces ``c``
field for field.
"""

from __future__ import annotations

import contextlib
import io
import re
import warnings
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from .brackets import CLOSE, OPEN, SINGLE, find_crossing, item_order, join_parts, pair_items
from .errors import ConlluError
from .model import (
    EMPTY_COLUMN,
    Document,
    Entity,
    Mention,
    Node,
    NodeId,
    Sentence,
    contiguous_segments,
    head_position,
    lazy_depths,
    sort_entity_mentions,
)


# one Entity item: an optional "(", the id, "-" attributes (dropped), then
# an optional "[k/n" part closed by "])", or ")" after an id without one
_ENTITY_ITEM_RE = re.compile(
    r"(\(?)(?:([A-Za-z0-9_]+)(?:-[^()\[\]]*)?(?:\[(\d+)/(\d+)(\]\))?|(\)))?)?")
_EMPTY_ID_RE = re.compile(r"^(\d+)\.(\d+)$")
_MWT_ID_RE = re.compile(r"^(\d+)-(\d+)$")

# MISC keys that carry anaphora annotations this toolkit does not score.
_SKIPPED_ANNOTATIONS = ("Bridge", "SplitAnte")

# builds a NodeId or Mention from a plain tuple of its fields, in C,
# without the named tuple's Python-level __new__ (and Mention's checks)
_new_tuple = tuple.__new__


def _parse_entity_items(value: str, line: int) -> list[tuple[str, str, tuple[int, int] | None]]:
    """The ``(kind, eid, part)`` items of one Entity value."""
    items = []
    pos = 0
    while pos < len(value):
        match = _ENTITY_ITEM_RE.match(value, pos)
        opener, eid, k, n, part_closed, closed = match.groups()
        pos = match.end()
        if eid is None:
            raise ConlluError(f"malformed entity id in Entity item near '{value[pos:pos + 12]}'",
                              line)
        part = (int(k), int(n)) if k else None
        if part and not 1 <= part[0] <= part[1]:
            raise ConlluError(f"malformed part {k}/{n} of entity '{eid}'", line)
        if opener:
            items.append((SINGLE if part_closed or closed else OPEN, eid, part))
        elif part_closed or closed:
            items.append((CLOSE, eid, part))
        elif part:
            raise ConlluError(f"malformed closing item for entity '{eid}'", line)
        else:
            raise ConlluError(f"malformed Entity item near '{value[pos:pos + 12]}'", line)
    return items


def _sentence_mentions(entity_values, nodes: list[Node], end_line: int) -> list[Mention]:
    """The mentions of one sentence, in the order they complete, from its
    ``(value, position, line)`` Entity values; ``end_line`` ends the
    sentence.

    Of several errors, the one met first reading the sentence is raised:
    a malformed value ends the reading, and brackets left open or parts
    left missing show only at the sentence end.
    """
    positioned, malformed = [], None
    for value, position, line in entity_values:
        try:
            positioned.append((position, _parse_entity_items(value, line)))
        except ConlluError as exc:
            malformed = exc
            break
    spans, unmatched, unclosed = pair_items(positioned)
    joined, orphans, missing = join_parts(spans)
    if not (malformed or unmatched or orphans or unclosed or missing):
        depth = lazy_depths(nodes)
        mentions = []
        for eid, positions in joined:
            head = nodes[head_position(positions, nodes, depth)].id
            span = tuple([nodes[p].id for p in positions])
            mentions.append(_new_tuple(Mention, (eid, span, head, head.is_empty)))
        return mentions
    line_of = {position: line for _, position, line in entity_values}
    if unmatched and not (orphans and orphans[0][1] < unmatched[0][1]):
        eid, pos, part, opener = unmatched[0]
        if opener is None:
            raise ConlluError(f"closing bracket for entity '{eid}' has no matching opener",
                              line_of[pos])
        raise ConlluError(f"entity '{eid}' closes part {part} but part {opener[1]} is open",
                          line_of[pos])
    if orphans:
        eid, pos, (k, n) = orphans[0]
        raise ConlluError(f"entity '{eid}' part {k}/{n} arrived without part {k - 1}/{n}",
                          line_of[pos])
    if malformed:
        raise malformed
    if unclosed:
        eid, start, _, _ = unclosed[0]
        raise ConlluError(f"entity '{eid}' opened at line {line_of[start]} has no closing "
                          "bracket before the end of the sentence", end_line)
    eid, (k, n) = missing[0]
    raise ConlluError(f"discontinuous mention of entity '{eid}' is missing part {k}/{n} "
                      "at the end of the sentence", end_line)


def _split_keyvals(column: str, bare: str | None, intern) -> dict[str, str | None]:
    """FEATS or MISC column other than ``_``; a piece without ``=`` maps
    to ``bare``."""
    out: dict[str, str | None] = {}
    for piece in column.split("|"):
        key, sep, val = piece.partition("=")
        out[intern(key, key)] = intern(val, val) if sep else bare
    return out


class _DocBuilder:
    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.sentences: list[Sentence] = []
        self.sent_ids: set[str] = set()
        self.mentions: dict[str, list[Mention]] = {}  # eid -> mentions in reading order

    def finish(self) -> tuple[Document, list[Entity]]:
        return Document(self.doc_id, self.sentences), [
            Entity(eid, sort_entity_mentions(ms)) for eid, ms in self.mentions.items()]


class _SentenceBuilder:
    def __init__(self, sent_index: int):
        self.sent_index = sent_index
        self.sent_id = ""
        self.sent_id_line = 0
        self.nodes: list[Node] = []
        self.mwt_ranges: list[tuple[int, int, str]] = []
        self.entity_values: list[tuple[str, int, int]] = []  # (value, position, line)
        self.prev_major = 0
        self.prev_minor = 0
        self.pending_mwt_end = 0
        self.first_line = 0
        # major (regular token) or (major, minor) -> the sentence's one
        # NodeId; parse_conllu inlines the lookup for regular tokens
        self.ids: dict = {}

    def node_id(self, major: int, minor: int = 0) -> NodeId:
        key = (major, minor) if minor else major
        nid = self.ids.get(key)
        if nid is None:
            nid = self.ids[key] = _new_tuple(NodeId, (self.sent_index, major, minor))
        return nid


def _parse_head_ref(text: str, sent: _SentenceBuilder, line: int) -> NodeId | None:
    if text in ("_", "", "0"):
        return None
    if text.isdecimal():
        return sent.node_id(int(text))
    match = _EMPTY_ID_RE.match(text)
    if match:
        return sent.node_id(int(match.group(1)), int(match.group(2)))
    raise ConlluError(f"malformed head reference '{text}'", line)


def parse_conllu(source, *, first_line: int = 1,
                 skipped: list[int] | None = None) -> list[tuple[Document, list[Entity]]]:
    """Parse CoNLL-U text (str, bytes, or a text or binary file object)
    into its ``(document, entities)`` pairs, those ``iter_documents`` yields.

    Raises ConlluError with a line number on invalid UTF-8, malformed ids,
    unbalanced entity brackets, references to nonexistent parents, or
    duplicate sent_ids within a document.

    Within a sentence each node id is one NodeId object, shared by the
    node, the parents pointing at it and the mention spans holding it;
    equal column strings are one object per parse.

    ``first_line`` numbers the first line of ``source``, for a piece cut
    from a longer input.  With ``skipped``, a one-item list, the count of
    non-identity anaphora annotations is added to ``skipped[0]`` rather
    than warned about.

    Invalid UTF-8 anywhere in the input is reported before any other
    error, as when the whole input is decoded first.
    """
    texts = _text_blocks(source)
    with _utf8_errors_first(texts):
        return list(_parse_documents(texts, first_line, skipped))


def iter_documents(source):
    """Yield ``(Document, entities)`` for each document of CoNLL-U
    ``source``, the documents of ``parse_conllu(source)``.  A file object
    is read a block at a time and each document is parsed on its own by
    ``parse_conllu``, so only the current document is held; its strings
    are interned per document.

    The errors are those of ``parse_conllu``, with the same lines, raised
    when the reading reaches them; invalid UTF-8 anywhere in the input is
    reported before any other error, as in ``parse_conllu``.
    """
    texts = _text_blocks(source)
    skipped = [0]
    with _utf8_errors_first(texts):
        yield from _parse_pieces(texts, skipped)
    if skipped[0]:
        _warn_skipped(skipped[0])


@contextlib.contextmanager
def _utf8_errors_first(texts):
    """On a ConlluError in the body, decode the rest of the text blocks
    ``texts``, so an invalid byte after the error is raised in its stead."""
    try:
        yield
    except ConlluError:
        for _ in texts:
            pass
        raise


# a line that parse_conllu reads as a newdoc comment ("#", whitespace,
# "newdoc"), found after its "\n": a search for a literal start is fast
_NEWDOC_RE = re.compile(r"\n#[^\S\n]*newdoc")


def _parse_pieces(texts, skipped):
    """The documents of the text blocks ``texts``, cut at each newdoc
    comment and parsed piece by piece.  The checks that span pieces are
    made in ``parse_conllu``'s order: a document's own errors, then a
    malformed newdoc comment after it, then (once it is yielded) a
    duplicate id."""
    seen_doc_ids: set[str] = set()
    line, held = 1, []  # held: the text of the current piece so far
    for text in texts:
        start = 0
        # each block starts a line, so in "\n" + text a match starts at the
        # index of its comment in text
        for match in _NEWDOC_RE.finditer("\n" + text):
            held.append(text[start:match.start()])
            start = match.start()
            piece, held = "".join(held), []
            newdoc_line = line + piece.count("\n")
            # a blank line in place of the newdoc comment closes the piece's
            # last sentence at that comment's line, as in one parse
            pairs = parse_conllu(piece + "\n", first_line=line, skipped=skipped) if piece else ()
            piece = None
            end = text.find("\n", start)
            doc_id = _newdoc_id(text[start:end if end >= 0 else None].rstrip("\r")[1:].strip(),
                                newdoc_line)
            yield from pairs
            pairs = None  # not alive while the next piece is read
            if doc_id in seen_doc_ids:
                raise ConlluError(f"duplicate document id '{doc_id}'", newdoc_line)
            seen_doc_ids.add(doc_id)
            line = newdoc_line
        held.append(text[start:])
    piece, held = "".join(held), None
    if piece:
        pairs = parse_conllu(piece, first_line=line, skipped=skipped)
        piece = None
        yield from pairs


def _newdoc_id(body: str, line: int) -> str:
    """The id of a newdoc comment whose text after "#" is ``body``."""
    _, _, doc_id = body.partition("=")
    doc_id = doc_id.strip()
    if not body.startswith("newdoc id") or not doc_id:
        raise ConlluError("newdoc comment must carry 'id = <value>'", line)
    return doc_id


def _warn_skipped(count: int) -> None:
    warnings.warn(
        f"skipped {count} non-identity anaphora annotations "
        f"({'/'.join(_SKIPPED_ANNOTATIONS)})",
        stacklevel=3,
    )


# an input is read this many bytes (or characters) at a time
_BLOCK = 1 << 14


def _decode(data: bytes, first_line: int, offset: int) -> str:
    """``data`` as UTF-8; an invalid byte raises ConlluError with its line
    and byte, counted on from ``first_line`` and ``offset``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConlluError(f"invalid UTF-8 ({exc.reason}) at byte {offset + exc.start}",
                          first_line + data.count(b"\n", 0, exc.start)) from None


def _file_blocks(file):
    while block := file.read(_BLOCK):
        yield block


def _text_blocks(source):
    """The text of ``source`` in pieces that each end at a "\\n", but for
    a last unfinished line, read a block at a time: a slice of a str or
    bytes, or a read of a file.  A byte order mark that starts the input
    is dropped."""
    chunks = (source[i:i + _BLOCK] for i in range(0, len(source), _BLOCK)) \
        if isinstance(source, (bytes, str)) else _file_blocks(source)
    line_no, offset, rest = 1, 0, []  # rest: the pieces of an unfinished line
    for chunk in chunks:
        cut = chunk.rfind(b"\n" if isinstance(chunk, bytes) else "\n") + 1
        if not cut:
            rest.append(chunk)
            continue
        data = chunk[:cut]
        if rest:
            data = data[:0].join([*rest, data])
        rest = [chunk[cut:]]
        text = data
        if isinstance(data, bytes):
            text = _decode(data, line_no, offset)
            line_no += text.count("\n")  # numbers the line of an invalid byte
        if not offset:
            text = text.lstrip("\ufeff")
        offset += len(data)
        yield text
    if any(rest):
        data = rest[0][:0].join(rest)
        text = _decode(data, line_no, offset) if isinstance(data, bytes) else data
        yield text if offset else text.lstrip("\ufeff")


def _parse_documents(texts, first_line: int, skipped: list[int] | None):
    """The ``(document, entities)`` pairs of ``parse_conllu`` on the text
    blocks ``texts``."""
    doc: _DocBuilder | None = None
    sent: _SentenceBuilder | None = None
    synthesized = 0
    skipped_annotations = 0
    seen_doc_ids: set[str] = set()
    intern = {}.setdefault

    def close_sentence(line: int) -> None:
        nonlocal sent
        if sent is None or not sent.nodes:
            sent = None
            return
        if sent.pending_mwt_end > sent.prev_major:
            raise ConlluError(
                f"multiword token range extends past the last token ({sent.pending_mwt_end})",
                line,
            )
        if sent.sent_id:
            if sent.sent_id in doc.sent_ids:
                raise ConlluError(
                    f"duplicate sent_id '{sent.sent_id}' within document '{doc.doc_id}'",
                    sent.sent_id_line,
                )
            doc.sent_ids.add(sent.sent_id)
        if len(sent.ids) != len(sent.nodes):  # a parent id that no node took
            ids = {n.id for n in sent.nodes}
            node = next(n for n in sent.nodes if n.parent is not None and n.parent not in ids)
            raise ConlluError(
                f"node {node.id.conllu_id()} references nonexistent parent "
                f"{node.parent.conllu_id()}", sent.first_line,
            )
        doc.sentences.append(Sentence(sent.nodes, sent.mwt_ranges, sent.sent_id))
        if sent.entity_values:
            grouped = doc.mentions
            for mention in _sentence_mentions(sent.entity_values, sent.nodes, line):
                grouped.setdefault(mention.entity_id, []).append(mention)
        sent = None

    def ensure_doc() -> None:
        nonlocal doc, synthesized
        if doc is None:
            synthesized += 1
            warnings.warn(
                "content before any '# newdoc id =' comment; synthesizing a document id",
                stacklevel=3,
            )
            doc = _DocBuilder(f"doc_{synthesized}")

    line_no = first_line - 1
    for text in texts:
        # CoNLL-U lines end at "\n" only; str.splitlines would also break
        # a FORM at U+2028, U+0085 and the like
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # a final newline ends the last line and starts none
        for line_no, raw in enumerate(lines, line_no + 1):
            line = raw.rstrip("\r")
            if not line or line.isspace():
                close_sentence(line_no)
                continue
            if line[0] == "#":
                body = line[1:].strip()
                if body.startswith("newdoc"):
                    close_sentence(line_no)
                    doc_id = _newdoc_id(body, line_no)
                    if doc is not None:
                        yield doc.finish()
                    if doc_id in seen_doc_ids:
                        raise ConlluError(f"duplicate document id '{doc_id}'", line_no)
                    seen_doc_ids.add(doc_id)
                    doc = _DocBuilder(doc_id)
                elif body.startswith("sent_id"):
                    ensure_doc()
                    if sent is None:
                        sent = _SentenceBuilder(len(doc.sentences))
                    _, _, value = body.partition("=")
                    sent.sent_id = value.strip()
                    sent.sent_id_line = line_no
                # other comments (e.g. '# text =') are dropped by canonicalization
                continue

            if sent is None:
                ensure_doc()
                sent = _SentenceBuilder(len(doc.sentences))
            if not sent.first_line:
                sent.first_line = line_no
            columns = line.split("\t")
            if len(columns) != 10:
                raise ConlluError(f"expected 10 tab-separated columns, got {len(columns)}",
                                  line_no)
            cid, form, lemma, upos, xpos, feats, head, deprel, deps, misc = columns

            # a regular id or HEAD is what str.isdecimal() accepts, exactly the
            # strings r"^\d+$" matches here; isdigit() would also take "²",
            # which int() refuses
            if cid.isdecimal():
                major = int(cid)
                if major != sent.prev_major + 1:
                    raise ConlluError(
                        f"token id '{cid}' does not continue the sequence after {sent.prev_major}",
                        line_no,
                    )
                sent.prev_major = major
                sent.prev_minor = 0
                ids = sent.ids
                nid = ids.get(major)
                if nid is None:
                    nid = ids[major] = _new_tuple(NodeId, (sent.sent_index, major, 0))
                if head.isdecimal() and head != "0":
                    parent_major = int(head)
                    parent = ids.get(parent_major)
                    if parent is None:
                        parent = ids[parent_major] = _new_tuple(
                            NodeId, (sent.sent_index, parent_major, 0))
                else:
                    parent = _parse_head_ref(head, sent, line_no)
                dep_label = deprel
            else:
                mwt = _MWT_ID_RE.match(cid)
                if mwt:
                    a, b = int(mwt.group(1)), int(mwt.group(2))
                    if a != sent.prev_major + 1 or b < a:
                        raise ConlluError(f"malformed multiword token range '{cid}'", line_no)
                    if sent.pending_mwt_end >= a:
                        raise ConlluError(f"overlapping multiword token range '{cid}'", line_no)
                    sent.mwt_ranges.append((a, b, form))
                    sent.pending_mwt_end = b
                    if misc != "_" and "Entity" in _split_keyvals(misc, None, intern):
                        warnings.warn(
                            f"line {line_no}: Entity annotation on a multiword-token "
                            "range is ignored",
                            stacklevel=2,
                        )
                    continue
                empty = _EMPTY_ID_RE.match(cid)
                if not empty:
                    raise ConlluError(f"malformed ID field '{cid}'", line_no)
                major, minor = int(empty.group(1)), int(empty.group(2))
                if major != sent.prev_major:
                    raise ConlluError(
                        f"empty node id '{cid}' is not anchored to the preceding token "
                        f"{sent.prev_major}", line_no,
                    )
                expected = sent.prev_minor + 1 if sent.prev_minor else 1
                if minor != expected:
                    raise ConlluError(
                        f"empty node id '{cid}' breaks the {major}.{expected} sequence", line_no)
                sent.prev_minor = minor
                nid = sent.node_id(major, minor)
                first_dep = deps.split("|", 1)[0] if deps != "_" else "_"
                if first_dep == "_":
                    parent, dep_label = None, "_"
                else:
                    parent_text, sep, dep_label = first_dep.partition(":")
                    if not sep:
                        raise ConlluError(f"malformed DEPS item '{first_dep}'", line_no)
                    parent = _parse_head_ref(parent_text, sent, line_no)

            if misc == "_":
                misc_map = EMPTY_COLUMN
            else:
                misc_map = _split_keyvals(misc, None, intern)
                entity_value = misc_map.pop("Entity", None)
                if entity_value:
                    sent.entity_values.append((entity_value, len(sent.nodes), line_no))
                for key in _SKIPPED_ANNOTATIONS:
                    if key in misc_map:
                        skipped_annotations += 1
                misc_map = misc_map or EMPTY_COLUMN
            sent.nodes.append(Node(
                nid, intern(form, form), intern(lemma, lemma), intern(upos, upos),
                intern(xpos, xpos),
                EMPTY_COLUMN if feats == "_" else _split_keyvals(feats, "", intern),
                parent, intern(dep_label, dep_label), misc_map,
            ))

    close_sentence(line_no)
    if doc is not None:
        yield doc.finish()
    if skipped is not None:
        skipped[0] += skipped_annotations
    elif skipped_annotations:
        _warn_skipped(skipped_annotations)


def _render_item(kind: str, eid: str, part: tuple[int, int] | None) -> str:
    tag = eid if part is None else f"{eid}[{part[0]}/{part[1]}"
    if kind == OPEN:
        return "(" + tag
    if part is not None:
        tag += "]"
    return tag + ")" if kind == CLOSE else "(" + tag + ")"


def _check_parts_pair_back(eid: str, spans) -> None:
    """Raise unless the reader pairs the ``[k/n]`` parts of ``spans``, one
    entity's written segments in mention order, back into the entity's
    mentions.

    Part k/n joins the first pending mention still waiting for it, so two
    discontinuous mentions whose parts interleave, such as {2, 6} and
    {3, 5}, would silently read back as {2, 5} and {3, 6}.
    """
    read, unmatched, unclosed = pair_items(sorted(item_order(spans).items()))
    mentions, orphans, missing = join_parts(read)
    written = Counter(tuple(positions) for _, positions in join_parts(spans)[0])
    if unmatched or unclosed or orphans or missing or Counter(
            tuple(positions) for _, positions in mentions) != written:
        raise ConlluError(
            f"the [k/n] parts of entity '{eid}' would read back as other "
            "mentions (discontinuous mentions interleave or share a segment); the "
            "bracket encoding cannot represent them"
        )


def _entity_strings(document: Document, doc_entities: list[Entity]) -> dict[int, str]:
    """Entity attribute values of one document, keyed by node position
    counted through the document, in the canonical item order."""
    offsets = list(accumulate((len(s.nodes) for s in document.sentences), initial=0))
    spans: list[tuple[str, int, int, tuple[int, int] | None]] = []
    for entity in doc_entities:
        entity_spans: list[tuple[str, int, int, tuple[int, int] | None]] = []
        gapped = False
        for mention in entity.mentions:
            sent_index = mention.start.sentence_index
            sentence = document.sentences[sent_index]
            segments = contiguous_segments(mention.span, sentence)
            total = len(segments)
            gapped |= total > 1
            for k, segment in enumerate(segments, start=1):
                start = offsets[sent_index] + sentence.position(segment[0])
                end = offsets[sent_index] + sentence.position(segment[-1])
                entity_spans.append((entity.id, start, end, (k, total) if total > 1 else None))
        spans.extend(entity_spans)
        crossing = find_crossing([(start, end) for _, start, end, _ in entity_spans])
        if crossing:
            # crossing spans share a sentence; report sentence positions
            base = offsets[bisect_right(offsets, crossing[0][0]) - 1]
            (s1, e1), (s2, e2) = ((s - base, e - base) for s, e in crossing)
            raise ConlluError(
                f"mentions of entity '{entity.id}' cross (spans [{s1},{e1}] and "
                f"[{s2},{e2}]); the bracket encoding cannot represent them"
            )
        if gapped:
            _check_parts_pair_back(entity.id, entity_spans)
    return {
        pos: "".join(_render_item(*item) for item in items)
        for pos, items in item_order(spans).items()
    }


def _render_keyvals(mapping: dict[str, str | None]) -> str:
    """FEATS or MISC column; a None value renders as the bare key."""
    if not mapping:
        return "_"
    pieces = []
    for key in sorted(mapping):
        value = mapping[key]
        pieces.append(key if value is None else f"{key}={value}")
    return "|".join(pieces)


def serialize_conllu(corpus) -> str:
    """Render ``(document, entities)`` pairs back to canonical CoNLL-U text:
    a list such as ``parse_conllu`` returns or a stream such as
    ``iter_documents`` yields."""
    out = io.StringIO()
    for document, doc_entities in corpus:
        entity_values = _entity_strings(document, doc_entities)
        doc_position = 0
        out.write(f"# newdoc id = {document.doc_id}\n")
        for sentence in document.sentences:
            if sentence.sent_id:
                out.write(f"# sent_id = {sentence.sent_id}\n")
            mwt_by_first = {a: (a, b, form) for a, b, form in sentence.mwt_ranges}
            for node in sentence.nodes:
                if not node.is_empty and node.id.major in mwt_by_first:
                    a, b, form = mwt_by_first[node.id.major]
                    out.write(f"{a}-{b}\t{form}\t_\t_\t_\t_\t_\t_\t_\t_\n")
                misc = dict(node.misc)
                entity_value = entity_values.get(doc_position)
                doc_position += 1
                if entity_value:
                    misc["Entity"] = entity_value
                if node.is_empty:
                    if node.parent is None:
                        deps = "_"
                    else:
                        deps = f"{node.parent.conllu_id()}:{node.deprel}"
                    head, deprel = "_", "_"
                else:
                    head = str(node.parent.major) if node.parent is not None else "0"
                    deprel = node.deprel
                    deps = "_"
                out.write(
                    "\t".join(
                        (
                            node.id.conllu_id(),
                            node.form,
                            node.lemma,
                            node.upos,
                            node.xpos,
                            _render_keyvals(node.feats),
                            head,
                            deprel,
                            deps,
                            _render_keyvals(misc),
                        )
                    )
                    + "\n"
                )
            out.write("\n")
    return out.getvalue()
