open Dggt_domains

type origin = Builtin | Pack of { dir : string }

type entry = { domain : Domain.t; aliases : string list; origin : origin }

(* base (built-in/registered) entries and pack entries are kept apart so
   a pack can shadow a built-in for as long as it is loaded — and the
   built-in resurfaces when a later load_dir drops the pack *)
type t = {
  mu : Mutex.t;
  mutable base : entry list;
  mutable packs : entry list;
  mutable generation : int;
  (* compiled automata keyed (normalized name, pack digest): a reload
     that leaves a pack's digest unchanged reuses the exact same
     automaton (pointer-equal), so hot /reload only pays compilation for
     packs whose bytes actually changed *)
  autos : (string * string, Dggt_autom.Autom.t) Hashtbl.t;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let norm = Dggt_util.Strutil.lowercase

let names_of e = norm e.domain.Domain.name :: List.map norm e.aliases

(* fresh copies, not the global [Text_editing.domain]/[Astmatcher.domain]:
   a server forces its entries' lazies on a pool worker while another
   thread may be forcing the globals *)
let default_builtins () = [ Text_editing.make (); Astmatcher.make () ]

(* the lookup view: packs shadow same-named base entries *)
let visible_unlocked t =
  let taken = Hashtbl.create 16 in
  List.iter
    (fun e -> List.iter (fun n -> Hashtbl.replace taken n ()) (names_of e))
    t.packs;
  List.filter
    (fun e -> not (List.exists (Hashtbl.mem taken) (names_of e)))
    t.base
  @ t.packs

(* duplicate names/aliases across [entries]; returns the first clash *)
let clash entries =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc e ->
      match acc with
      | Some _ -> acc
      | None ->
          List.fold_left
            (fun acc n ->
              match acc with
              | Some _ -> acc
              | None ->
                  if Hashtbl.mem seen n then Some (n, e)
                  else begin
                    Hashtbl.add seen n ();
                    None
                  end)
            None (names_of e))
    None entries

let create ?builtins () =
  let builtins =
    match builtins with Some b -> b | None -> default_builtins ()
  in
  let base =
    List.map
      (fun (domain, aliases) -> { domain; aliases; origin = Builtin })
      builtins
  in
  (match clash base with
  | Some (n, _) -> invalid_arg ("Domain_registry.create: duplicate name " ^ n)
  | None -> ());
  {
    mu = Mutex.create ();
    base;
    packs = [];
    generation = 0;
    autos = Hashtbl.create 8;
  }

let entries t = locked t (fun () -> visible_unlocked t)
let domains t = List.map (fun e -> e.domain) (entries t)
let generation t = locked t (fun () -> t.generation)

let find_entry t name =
  let n = norm name in
  locked t (fun () ->
      List.find_opt (fun e -> List.mem n (names_of e)) (visible_unlocked t))

let find t name = Option.map (fun e -> e.domain) (find_entry t name)

let register t ?(aliases = []) ?(origin = Builtin) domain =
  let e = { domain; aliases; origin } in
  locked t (fun () ->
      match clash (visible_unlocked t @ [ e ]) with
      | Some (n, _) ->
          Error (Printf.sprintf "domain name %S is already registered" n)
      | None ->
          t.base <- t.base @ [ e ];
          t.generation <- t.generation + 1;
          Ok ())

(* what identifies an entry's texts: its pack digest, built-in or not,
   hashed on first use. Callers hold the lock, so no two threads force
   one digest at once. *)
let digest_unlocked e = Lazy.force e.domain.Domain.digest

let digest t e = locked t (fun () -> digest_unlocked e)

let pack_dirs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun sub ->
         let p = Filename.concat dir sub in
         if
           Sys.is_directory p
           && Sys.file_exists (Filename.concat p Pack.manifest_name)
         then Some p
         else None)

let ( let* ) = Result.bind

let load_dir t dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Err.v dir "no such pack directory")
  else
    let* loaded =
      List.fold_left
        (fun acc d ->
          let* acc = acc in
          let* l = Loader.load d in
          Ok (l :: acc))
        (Ok []) (pack_dirs dir)
      |> Result.map List.rev
    in
    let fresh =
      List.map
        (fun (l : Loader.loaded) ->
          {
            domain = l.Loader.domain;
            aliases = l.Loader.settings.Pack.aliases;
            origin = Pack { dir = l.Loader.dir };
          })
        loaded
    in
    (* a pack may shadow a base entry (checked via visibility, not here),
       but two packs claiming one name is always an error *)
    match clash fresh with
    | Some (n, bad) ->
        let l =
          List.find
            (fun (l : Loader.loaded) -> l.Loader.domain == bad.domain)
            loaded
        in
        let s = l.Loader.settings in
        Error
          (Err.vf ~line:s.Pack.name.Manifest.line
             s.Pack.manifest.Manifest.file
             "duplicate domain name %S" n)
    | None ->
        locked t (fun () ->
            (* the swap: the new pack set replaces the old in one step;
               entries already handed out keep working (immutable) *)
            t.packs <- fresh;
            t.generation <- t.generation + 1;
            (* drop automata whose digest no longer names a visible
               entry — dropped/changed packs release their tables; an
               unchanged digest keeps its compiled automaton alive.
               Loaded packs are hashed at load; a built-in is hashed
               when first asked for, and one never hashed has no
               automaton here, so it need not be hashed now. *)
            let live =
              List.filter_map
                (fun e ->
                  if Lazy.is_val e.domain.Domain.digest then
                    Some (digest_unlocked e)
                  else None)
                (visible_unlocked t)
            in
            let stale =
              Hashtbl.fold
                (fun ((_, ck) as key) _ acc ->
                  if List.mem ck live then acc else key :: acc)
                t.autos []
            in
            List.iter (Hashtbl.remove t.autos) stale;
            Ok fresh)

let automaton ?trace t (e : entry) =
  let key, cached =
    locked t (fun () ->
        let key = (norm e.domain.Domain.name, digest_unlocked e) in
        (key, Hashtbl.find_opt t.autos key))
  in
  match cached with
  | Some a -> (a, false)
  | None ->
      (* compile outside the lock, [Ggraph.dist_from]-style: two racing
         compilers both do the work, the first insert wins and the loser
         is discarded — compilation is deterministic, so either serves *)
      let a =
        Dggt_autom.Autom.compile ?trace (Lazy.force e.domain.Domain.graph)
      in
      locked t (fun () ->
          match Hashtbl.find_opt t.autos key with
          | Some winner -> (winner, false)
          | None ->
              Hashtbl.add t.autos key a;
              (a, true))

let pack_digest t =
  locked t (fun () ->
      List.map
        (fun e -> (e.domain.Domain.name, digest_unlocked e))
        (visible_unlocked t))
  |> List.sort compare
  |> List.map (fun (n, d) -> n ^ ":" ^ d)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
