(** The warm-start store: one snapshot file per store directory
    ([DIR/snapshot]) holding the server's two LRU caches, so a
    restarted server answers its repeated queries from the first
    request.

    {2 File}

    A header over one [Marshal] payload. The header is a magic line and
    one line of four fields: {!schema_version}, the registry's aggregate
    pack digest, the MD5 of the payload (hex) and the payload's length.
    The payload holds the two caches' entries, each list in
    {!Cache.fold}'s LRU-to-MRU order, with the registry generation
    stripped from every key: generations are process-local, so {!load}
    re-keys every entry under the booting process's generation, and the
    pack digest, not the generation, pins the content the entries were
    computed against.

    Every spill writes the whole file to [snapshot.tmp], fsyncs it and
    renames it over [snapshot], so a crash mid-spill leaves the previous
    snapshot whole.

    {2 Refuse and boot cold}

    {!load} checks the header and the payload's length and MD5 before
    [Marshal.from_string] sees a byte. A snapshot of another schema or
    another pack digest is skipped whole; a damaged one is rejected
    whole. Either way the server boots cold and recomputes: a damaged
    snapshot can cost time, never a wrong answer. The digest defends
    against accidental damage (truncation, bit rot), not against an
    adversary with write access to the directory, the same stance as
    the pack digests. *)

val schema_version : int
(** Layout version of the payload. Bump on {e any} shape change of the
    payload types or their parts ([Engine.outcome], [Engine.mode],
    [Word2api.candidate]): that is what keeps [Marshal.from_string] away
    from bytes of another layout. *)

type caches = {
  q :
    ( int * string * string * string * Dggt_core.Engine.mode,
      Dggt_core.Engine.outcome )
    Cache.t;
  word :
    ( int * string * string * string,
      Dggt_core.Word2api.candidate list )
    Cache.t;
}
(** The server's two LRUs, keyed as the server keys them (leading [int]
    is the registry generation): whole-query outcomes by engine call
    (domain, engine, query, mode), and WordToAPI candidates by (domain,
    lemma, POS). *)

type spill_report = { sp_entries : int; sp_bytes : int; sp_seconds : float }

val spill :
  string ->
  generation:int ->
  pack_digest:string ->
  caches ->
  (spill_report, string) result
(** [spill dir ~generation ~pack_digest caches] writes the entries keyed
    under [generation] as [dir]'s snapshot, replacing the previous one;
    entries of an older generation (late writes from a request that
    outlived a reload) are left out. On [Error] the previous snapshot
    stays in place. *)

type verdict =
  | Absent  (** no snapshot in the directory *)
  | Loaded of int  (** the snapshot was replayed: this many entries *)
  | Skipped of string
      (** an intact snapshot of another schema or pack digest *)
  | Rejected of string
      (** a damaged snapshot: magic, header, length, digest or payload *)

val load :
  string -> generation:int -> pack_digest:string -> caches -> verdict
(** Replay [dir]'s snapshot into [caches], every entry re-keyed under
    [generation] and in the recency order it was spilled in. Only an
    intact snapshot of this {!schema_version} and this [pack_digest] is
    replayed; any other leaves [caches] untouched. Never raises. *)

type summary = {
  bytes : int;
  schema : int;
  pack_digest : string;
  entries : (string * int) list;
      (** entries per cache ([q_cache], [word_cache]);
          [[]] for a snapshot of another schema, whose payload is not
          read *)
}

val inspect : string -> (summary option, string) result
(** What [dggt store verify] prints: [Ok None] when [dir] holds no
    snapshot, [Error] naming the damage when it holds a damaged one. *)
