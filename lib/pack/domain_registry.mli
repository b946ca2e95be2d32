(** The mutex-guarded domain registry: the one place that answers "which
    domains exist right now, and what does this name refer to?".

    Built-in domains (TextEditing, ASTMatcher) are registered at creation;
    pack-loaded domains arrive through {!load_dir}, which {e atomically}
    replaces the previous pack set — a failed load leaves the registry
    exactly as it was, and readers holding a {!Dggt_domains.Domain.t}
    snapshot keep using it unperturbed (entries are immutable; the swap
    only changes what future lookups see).

    Names are matched case-insensitively against each domain's name and
    its aliases ([te], [am] for the built-ins; [alias =] lines for
    packs). *)

type origin = Builtin | Pack of { dir : string }

type entry = {
  domain : Dggt_domains.Domain.t;
  aliases : string list;
  origin : origin;
}

type t

val create : ?builtins:(Dggt_domains.Domain.t * string list) list -> unit -> t
(** [builtins] defaults to TextEditing (alias [te]) and ASTMatcher
    (alias [am]), as fresh copies ({!Dggt_domains.Text_editing.make},
    {!Dggt_domains.Astmatcher.make}) whose lazies no other registry and
    no user of the global [domain] values forces; pass [[]] for an empty
    registry. Raises [Invalid_argument] on duplicate names. *)

val find : t -> string -> Dggt_domains.Domain.t option
val find_entry : t -> string -> entry option
val entries : t -> entry list
(** Built-ins first (registration order), then packs (directory order). *)

val domains : t -> Dggt_domains.Domain.t list

val register : t -> ?aliases:string list -> ?origin:origin ->
  Dggt_domains.Domain.t -> (unit, string) result
(** Append one domain; [Error] (registry unchanged) when its name or an
    alias is already taken. *)

val load_dir : t -> string -> (entry list, Dggt_domains.Err.t) result
(** Load every subdirectory of [dir] that contains a [domain.pack]
    (sorted by name), then atomically replace the registry's pack entries
    with the result and bump {!generation}. A pack whose name or alias
    matches a built-in {e overrides} it (so the exported built-ins under
    [examples/packs/] are directly servable); two packs claiming the same
    name is an error, reported against the later pack manifest's
    [name =] line. All-or-nothing: any load error aborts with the
    registry untouched. Returns the new pack entries. *)

val generation : t -> int
(** Bumped by every successful {!load_dir}/{!register} — [GET /version]
    exposes it so clients can observe hot reloads. *)

val digest : t -> entry -> string
(** The entry's pack digest ([Domain.digest]: of its texts, embedded or
    read), hashed on first use under the registry's lock. *)

val pack_digest : t -> string
(** Order-independent digest over every visible entry's name and
    {!digest}, built-ins included: the warm store's key, so a rebuilt
    binary whose embedded packs changed refuses the old snapshot. *)

val automaton :
  ?trace:Dggt_obs.Trace.sink -> t -> entry -> Dggt_autom.Autom.t * bool
(** The entry's grammar compiled into EdgeToPath state tables
    ({!Dggt_autom.Autom.compile}), cached in the registry keyed by name
    and {!digest}. The flag is [true] when this call compiled the
    automaton and [false] on a cache hit — a {!load_dir} that leaves a
    pack's digest unchanged hands back the {e pointer-equal} automaton,
    so a hot
    [POST /reload] compiles exactly once per changed pack. [trace]
    receives the AutomatonCompile span on fresh compiles only.
    Compilation runs outside the registry lock; concurrent callers may
    both compile, with the first to finish winning. *)
