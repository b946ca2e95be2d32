(* The warm-start store: one snapshot file per store directory holding
   Serve's two LRUs. Every [Marshal] of an engine type happens here,
   versioned by [schema_version]. *)

open Dggt_core

(* Bump whenever any payload type below changes shape — including
   transitively (Engine.outcome, Engine.ranked, Word2api.candidate). A
   bump makes every old snapshot a skip, which is the point: Marshal
   would otherwise read the old bytes as the new type. Versions 1 and 2
   were records of the older store.log, which nothing reads now; version
   3 held a third cache, of ranked lists. *)
let schema_version = 4

let file_name = "snapshot"
let magic = "DGGT warm snapshot\n"

type caches = {
  q : (int * string * string * string * Engine.mode, Engine.outcome) Cache.t;
  word : (int * string * string * string, Word2api.candidate list) Cache.t;
}

(* The payload, exactly as marshalled: each cache's entries with the
   registry generation stripped from their keys, least-recently-used
   first (Cache.fold's pinned order), so replaying them through
   Cache.add reproduces the recency order. *)
type payload =
  ((string * string * string * Engine.mode) * Engine.outcome) list
  * ((string * string * string) * Word2api.candidate list) list

(* ------------------------------------------------------------------ *)
(* spill                                                              *)
(* ------------------------------------------------------------------ *)

type spill_report = { sp_entries : int; sp_bytes : int; sp_seconds : float }

(* [c]'s entries keyed under [generation], LRU first; [split] takes a
   key apart into its generation and the rest *)
let entries c ~generation split =
  List.rev
    (Cache.fold
       (fun acc k v ->
         match split k with
         | g, k when g = generation -> (k, v) :: acc
         | _ -> acc)
       [] c)

(* a temp file, fsynced, then renamed over the old snapshot: a crash at
   any point leaves either snapshot whole *)
let write_atomic dir contents =
  let path = Filename.concat dir file_name in
  let tmp = path ^ ".tmp" in
  match
    let fd =
      Unix.openfile tmp
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.write_substring fd contents 0 (String.length contents));
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error
        (match e with
        | Unix.Unix_error (err, fn, _) -> fn ^ ": " ^ Unix.error_message err
        | e -> Printexc.to_string e)

let spill dir ~generation ~pack_digest caches =
  let t0 = Unix.gettimeofday () in
  let q =
    entries caches.q ~generation (fun (g, d, e, qy, m) -> (g, (d, e, qy, m)))
  in
  let word =
    entries caches.word ~generation (fun (g, d, l, p) -> (g, (d, l, p)))
  in
  let payload = Marshal.to_string ((q, word) : payload) [] in
  let contents =
    Printf.sprintf "%s%d %s %s %d\n%s" magic schema_version pack_digest
      (Digest.to_hex (Digest.string payload))
      (String.length payload) payload
  in
  Result.map
    (fun () ->
      {
        sp_entries = List.length q + List.length word;
        sp_bytes = String.length contents;
        sp_seconds = Unix.gettimeofday () -. t0;
      })
    (write_atomic dir contents)

(* ------------------------------------------------------------------ *)
(* load                                                               *)
(* ------------------------------------------------------------------ *)

type header = { size : int; schema : int; pack_digest : string }

(* the snapshot's header and payload once the magic, the header fields,
   the payload's length and its MD5 check out; [Ok None] when there is
   no snapshot. Nothing here unmarshals. *)
let read dir =
  let path = Filename.concat dir file_name in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ when not (Sys.file_exists path) -> Ok None
  | exception Sys_error msg -> Error msg
  | s -> (
      let ml = String.length magic in
      if String.length s < ml || String.sub s 0 ml <> magic then
        Error "not a snapshot (bad magic)"
      else
        match String.index_from_opt s ml '\n' with
        | None -> Error "truncated header"
        | Some eol -> (
            match String.split_on_char ' ' (String.sub s ml (eol - ml)) with
            | [ schema; pack_digest; md5; length ] -> (
                match (int_of_string_opt schema, int_of_string_opt length) with
                | Some schema, Some length ->
                    let payload =
                      String.sub s (eol + 1) (String.length s - eol - 1)
                    in
                    if String.length payload <> length then
                      Error
                        (Printf.sprintf "payload is %d bytes, header says %d"
                           (String.length payload) length)
                    else if Digest.to_hex (Digest.string payload) <> md5 then
                      Error "payload digest mismatch"
                    else
                      Ok
                        (Some
                           ( { size = String.length s; schema; pack_digest },
                             payload ))
                | _ -> Error "malformed header")
            | _ -> Error "malformed header"))

(* digest-checked bytes this module wrote, under this schema: the only
   [Marshal.from_string] on a payload. A surprise is a refusal, never a
   crash. *)
let unmarshal payload : payload option =
  match Marshal.from_string payload 0 with
  | p -> Some p
  | exception _ -> None

type verdict =
  | Absent
  | Loaded of int
  | Skipped of string
  | Rejected of string

let load dir ~generation ~pack_digest caches =
  match read dir with
  | Ok None -> Absent
  | Error why -> Rejected why
  | Ok (Some (h, _)) when h.schema <> schema_version ->
      Skipped
        (Printf.sprintf "schema %d (this build reads %d)" h.schema
           schema_version)
  | Ok (Some (h, _)) when h.pack_digest <> pack_digest ->
      Skipped
        (Printf.sprintf "pack digest %s (the registry's is %s)" h.pack_digest
           pack_digest)
  | Ok (Some (_, payload)) -> (
      match unmarshal payload with
      | None -> Rejected "payload does not unmarshal"
      | Some (q, word) ->
          List.iter
            (fun ((d, e, qy, m), v) ->
              Cache.add caches.q (generation, d, e, qy, m) v)
            q;
          List.iter
            (fun ((d, l, p), v) ->
              Cache.add caches.word (generation, d, l, p) v)
            word;
          Loaded (List.length q + List.length word))

type summary = {
  bytes : int;
  schema : int;
  pack_digest : string;
  entries : (string * int) list;
}

let inspect dir =
  match read dir with
  | Error why -> Error why
  | Ok None -> Ok None
  | Ok (Some (h, payload)) -> (
      let summary entries =
        Ok
          (Some
             {
               bytes = h.size;
               schema = h.schema;
               pack_digest = h.pack_digest;
               entries;
             })
      in
      if h.schema <> schema_version then summary []
      else
        match unmarshal payload with
        | None -> Error "payload does not unmarshal"
        | Some (q, word) ->
            summary
              [ ("q_cache", List.length q); ("word_cache", List.length word) ])
