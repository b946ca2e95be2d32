(** The serving layer's half of the warm-start store
    ({!Dggt_store.Store}): typed spill/load of the server's LRU caches
    and compiled automatons. The store itself is generic over opaque
    payload bytes; this module owns every [Marshal] of an engine type
    and the key discipline around it.

    {2 Key discipline}

    - Cache entries are spilled with the registry generation {e
      stripped} from their keys (generations are process-local — they
      restart every boot) and re-keyed under the booting process's
      generation at load, gated on the record's pack digest matching
      the current registry's: the digest, not the generation, pins the
      content the entries were computed against.
    - Automaton records are keyed by the entry's {e content key}
      ({!Dggt_pack.Domain_registry.content_key}), so one changed pack
      invalidates only its own automaton; restore goes through
      {!Dggt_autom.Autom.of_image}, whose structural-digest check is
      the final guard before the tables are trusted.
    - Everything is additionally schema-versioned ({!schema_version});
      records of any other schema are skips.

    Refuse-and-rebuild throughout: any digest, unmarshal or restore
    surprise counts the record rejected and the server recomputes — a
    corrupt store can cost time, never correctness. *)

val schema_version : int
(** Version of the marshalled payload layouts. Bump on {e any} shape
    change of the payload types or their transitive parts
    ([Engine.outcome], [Engine.ranked], [Word2api.candidate],
    [Autom.image]) — that is what keeps [Marshal.from_string] away from
    bytes of another layout. *)

val kind_cache : string
val kind_autom : string

type caches = {
  q :
    ( int * string * string * string * int,
      Dggt_core.Engine.outcome * Dggt_core.Engine.ranked list )
    Cache.t;
  rank :
    (int * string * string * int, Dggt_core.Engine.ranked list) Cache.t;
  word :
    ( int * string * string * string,
      Dggt_core.Word2api.candidate list )
    Cache.t;
}
(** Serve's three LRUs, keyed as the server keys them (leading [int] is
    the registry generation). *)

type spill_report = {
  sp_records : int;
  sp_entries : int;  (** cache entries across the three LRUs *)
  sp_bytes : int;
  sp_seconds : float;
}

val spill :
  Dggt_store.Store.t ->
  generation:int ->
  pack_digest:string ->
  caches ->
  automata:(string * string * Dggt_autom.Autom.t) list ->
  (spill_report, string) result
(** Append one snapshot batch: up to three cache records (empty caches
    spill nothing) in {!Cache.fold}'s LRU-to-MRU order — so a later
    load replays recency exactly — plus one automaton-image record per
    [(domain name, content key, automaton)] row. *)

type load_report = {
  ld_cache_entries : int;  (** cache entries replayed into the LRUs *)
  ld_automata : int;  (** automaton records held for {!seed} *)
  ld_applied : int;  (** records whose payload was applied *)
  ld_skipped : int;
      (** schema mismatches, superseded duplicates, key mismatches *)
  ld_rejected : int;
      (** digest/frame damage plus unmarshal/restore refusals *)
  ld_seconds : float;
}

type images
(** The automaton records a {!load} kept: the newest one of each
    registry entry, restored only by {!seed}. *)

val load :
  Dggt_store.Store.t ->
  generation:int ->
  pack_digest:string ->
  registry:Dggt_pack.Domain_registry.t ->
  caches ->
  load_report * images
(** Replay the newest valid snapshot: for each [(kind, name, engine)]
    identity only the newest record applies (periodic spills append
    whole snapshots). Cache records must carry the current [pack_digest]
    and are re-keyed under [generation]. Automaton records are only
    matched here, against the registry entry with their domain name and
    content key; the matches come back as [images] and are not counted
    in [ld_applied], [ld_skipped] or [ld_rejected] until {!seed}
    restores them. Forces no grammar graph. Never raises. *)

val seed :
  images ->
  Dggt_pack.Domain_registry.t ->
  Dggt_pack.Domain_registry.entry ->
  [ `Seeded | `Skipped | `Rejected | `Absent ]
(** Restore [entry]'s automaton image against its graph (forcing it)
    and install it with {!Dggt_pack.Domain_registry.seed_automaton}, so
    the entry's next {!Dggt_pack.Domain_registry.automaton} call pays no
    compile: [`Seeded]. [`Skipped] when the registry already holds an
    automaton for the entry, [`Rejected] when the image fails to
    unmarshal or to restore, [`Absent] when {!load} kept no image for
    the entry. Call it in the entry's build, before
    {!Dggt_pack.Domain_registry.automaton}. Never raises. *)
