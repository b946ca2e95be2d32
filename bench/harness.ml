(* What every bench target and the load generator share: one query
   selector, one engine session and edit-script builder, one loopback
   server and one-shot HTTP/SSE client, one failure gate, and one ledger
   writer with one header for every BENCH_<target>.json. *)

open Dggt_core
open Dggt_domains
module J = Dggt_server.Jsonio
module Serve = Dggt_server.Serve

(* ------------------------------------------------------------------ *)
(* Queries and engine sessions                                        *)
(* ------------------------------------------------------------------ *)

(* the first [limit] queries of [dom] ([None] = all of them); the served
   targets pass [skip_hard], dropping the hard tail before counting *)
let queries ?(skip_hard = false) limit (dom : Domain.t) =
  let qs =
    if skip_hard then
      List.filter (fun (q : Domain.query) -> not q.Domain.hard) dom.Domain.queries
    else dom.Domain.queries
  in
  match limit with None -> qs | Some n -> Dggt_util.Listutil.take n qs

(* [dom] holding only [queries limit dom], for the Runner-driven targets *)
let restrict limit (dom : Domain.t) = { dom with Domain.queries = queries limit dom }

(* the engine every baseline runs: [alg] (DGGT unless given) under the
   bench budget, with [caches] as the stage hooks *)
let session ?caches ?(alg = Engine.Dggt_alg) ~timeout_s dom =
  Domain.configure ?caches dom
    { (Engine.default alg) with Engine.timeout_s = Some timeout_s }

let respond ses mode text =
  Engine.respond ses { Engine.input = Engine.Text text; mode }

(* [f ()] and its wall time in seconds *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* split a query into typeable chunks, never breaking a quoted literal
   ("append \":\" at ..." must keep the ':' inside its quotes) *)
let edit_chunks q =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  let in_quote = ref false in
  String.iter
    (fun c ->
      match c with
      | '"' ->
          Buffer.add_char buf c;
          in_quote := not !in_quote
      | (' ' | '\t') when not !in_quote -> flush ()
      | c -> Buffer.add_char buf c)
    q;
  flush ();
  List.rev !out

(* a query as typed: the last [depth] word-append revisions (the
   as-you-type tail), then a whitespace/punctuation-only revision that
   should splice; each revision with whether it appended one word *)
let edit_script ~depth q =
  let chunks = edit_chunks q in
  let n = List.length chunks in
  let prefix k = String.concat " " (List.filteri (fun i _ -> i < k) chunks) in
  let first = max 1 (n - depth) in
  List.init (n - first + 1) (fun i -> (prefix (first + i), first + i > first))
  @ [ (prefix n ^ " .", false) ]

(* ------------------------------------------------------------------ *)
(* The failure gate                                                   *)
(* ------------------------------------------------------------------ *)

let failures = Atomic.make 0

(* print one failure; [finish] turns any into exit status 1 *)
let fail fmt =
  Format.kasprintf
    (fun s ->
      Atomic.incr failures;
      Format.eprintf "%s@." s)
    fmt

let failed () = Atomic.get failures

(* byte-equivalence of two runs of one query; timing is the one field
   allowed to differ *)
let outcome_divergence (a : Engine.outcome) (b : Engine.outcome) =
  if a.Engine.code <> b.Engine.code then Some "code"
  else if a.Engine.cgt_size <> b.Engine.cgt_size then Some "cgt_size"
  else if a.Engine.failure <> b.Engine.failure then Some "failure"
  else if a.Engine.timed_out <> b.Engine.timed_out then Some "timed_out"
  else if not (Stats.equal a.Engine.stats b.Engine.stats) then Some "stats"
  else None

let diverged ~domain ~text what =
  fail "EQUIVALENCE VIOLATION (%s): %s diverged on %S" domain what text

(* The identity check of every A/B target, one query at a time. A
   wall-clock timeout on either side makes the pair incomparable (the
   faster side legitimately finishes more, and on a loaded host any side
   may run out), so the pair is counted in [skips] instead of compared. *)
let check_pair ?(divergence = outcome_divergence) ~skips ~domain ~text
    (a : Engine.outcome) (b : Engine.outcome) =
  if a.Engine.timed_out || b.Engine.timed_out then incr skips
  else Option.iter (diverged ~domain ~text) (divergence a b)

let finish () =
  Format.pp_print_flush Format.std_formatter ();
  if failed () > 0 then begin
    Format.eprintf "%d failure(s)@." (failed ());
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Console tables and the ledger                                      *)
(* ------------------------------------------------------------------ *)

let rule () = Format.printf "@.%s@.@." (String.make 78 '-')

(* a target's opening: the rule, then its method as a wrapped paragraph *)
let heading method_ =
  rule ();
  Format.printf "@[<hov>%a@]@.@." Format.pp_print_text method_

(* the value at a dotted path of a JSON row *)
let at path row =
  List.fold_left
    (fun j k -> Option.bind j (J.member k))
    (Some row)
    (String.split_on_char '.' path)

let num path row = Option.value (Option.bind (at path row) J.num) ~default:0.0

(* a column of a console table: its header and how it renders the value
   at [path] of each row (numbers through [fmt] after [scale]) *)
let col ?(fmt = format_of_string "%.3f") ?(scale = 1.0) header path =
  ( header,
    fun row ->
      match at path row with
      | Some (J.Num v) -> Printf.sprintf fmt (scale *. v)
      | Some (J.Bool b) -> if b then "yes" else "NO"
      | Some (J.Str s) -> s
      | _ -> "-" )

let int_col header path = col ~fmt:"%.0f" header path

(* print [rows] (the ledger's own objects) right-aligned under [cols] *)
let table cols rows =
  let cells = List.map (fun r -> List.map (fun (_, cell) -> cell r) cols) rows in
  let widths =
    List.mapi
      (fun i (h, _) ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) cells)
      cols
  in
  let line xs =
    Format.printf "  %s@."
      (String.concat "  " (List.map2 (Printf.sprintf "%*s") widths xs))
  in
  line (List.map fst cols);
  List.iter line cells;
  Format.printf "@."

(* the checkout's commit, "-dirty" when the tree differs from it;
   "unknown" outside a git checkout *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic =
      Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |]
    in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c

let int n = J.Num (float_of_int n)

(* Write BENCH_<bench>.json into the current directory: the one header
   every ledger shares, then the target's own [fields]. Times and
   speedups mean something only beside the host that measured them. *)
let ledger ~bench ~method_ ~timeout_s ~limit fields =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  let header =
    [
      ("bench", J.Str bench);
      ( "host",
        J.Obj
          [
            ("cores", int (Stdlib.Domain.recommended_domain_count ()));
            ("ocaml_version", J.Str Sys.ocaml_version);
            ("commit", J.Str (commit ()));
          ] );
      ("method", J.Str method_);
      ("timeout_s", J.Num timeout_s);
      ("limit", J.opt int limit);
    ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (J.Obj (header @ fields)));
      output_char oc '\n');
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Loopback serving                                                   *)
(* ------------------------------------------------------------------ *)

(* an in-process server on an ephemeral loopback port with two workers
   and the bench budget; [tweak] sets what a caller changes beyond that *)
let serve ?(tweak = Fun.id) ~timeout_s () =
  let srv =
    Serve.create
      (tweak
         {
           Serve.default_params with
           Serve.port = 0;
           workers = 2;
           default_timeout_s = timeout_s;
         })
  in
  (srv, Serve.port srv)

(* the dggt binary a router's workers run, beside this executable in the
   same _build tree; exits 2 when it is not built *)
let worker_exe () =
  let guess =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "dggt_cli.exe")
  in
  let exe =
    if Filename.is_relative guess then Filename.concat (Sys.getcwd ()) guess
    else guess
  in
  if not (Sys.file_exists exe) then begin
    Format.eprintf "worker binary %s missing (run: dune build bin/dggt_cli.exe)@."
      exe;
    exit 2
  end;
  exe

(* the JSON body of a query request; [k] for /rank *)
let query_body ?k ~timeout_s ~domain text =
  J.to_string
    (J.Obj
       ([ ("query", J.Str text); ("domain", J.Str domain) ]
       @ Option.to_list (Option.map (fun k -> ("k", int k)) k)
       @ [ ("timeout", J.Num timeout_s) ]))

(* one-shot HTTP/1.1 request over loopback (connection: close): the
   status and the raw body *)
let http ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\
           content-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec write_all off =
        if off < String.length req then
          write_all (off + Unix.write_substring fd req off (String.length req - off))
      in
      write_all 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      let status = Scanf.sscanf raw "HTTP/1.1 %d" (fun s -> s) in
      let n = String.length raw in
      let rec hdr_end i =
        if i + 4 > n then n
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else hdr_end (i + 1)
      in
      let b = hdr_end 0 in
      (status, String.sub raw b (n - b)))

(* a streamed POST over loopback: the status and the response's chunks
   in order, one SSE frame each (the server writes one chunk per frame) *)
let stream ~port ~path ~body =
  let status, raw = http ~port ~meth:"POST" ~path ~body () in
  let n = String.length raw in
  let rec frames acc cur =
    match String.index_from_opt raw cur '\r' with
    | None -> List.rev acc
    | Some le -> (
        match
          int_of_string_opt ("0x" ^ String.trim (String.sub raw cur (le - cur)))
        with
        | Some size when size > 0 && le + 2 + size + 2 <= n ->
            frames (String.sub raw (le + 2) size :: acc) (le + 2 + size + 2)
        | _ -> List.rev acc)
  in
  (status, if status = 200 then frames [] 0 else [])

(* "event: X\ndata: {json}\n\n" -> (X, json-text); a frame with an empty
   event name or empty data is unparseable *)
let sse_event frame =
  match String.split_on_char '\n' frame with
  | ev :: data :: _
    when String.length ev > 7
         && String.starts_with ~prefix:"event: " ev
         && String.length data > 6
         && String.starts_with ~prefix:"data: " data ->
      Some
        ( String.sub ev 7 (String.length ev - 7),
          String.sub data 6 (String.length data - 6) )
  | _ -> None

(* the deterministic fields of a /synthesize body, which must survive a
   cache, a store or a router byte for byte (time_s and cached may not) *)
let deterministic_fields = [ "ok"; "code"; "cgt_size"; "failure"; "alternatives"; "stats" ]

(* the deterministic fields on which two /synthesize bodies differ *)
let fields_diff a b =
  List.filter
    (fun k ->
      Option.map J.to_string (J.member k a) <> Option.map J.to_string (J.member k b))
    deterministic_fields

(* the integer value of the /metrics sample named [name] (labels included) *)
let metric_value name body =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)
