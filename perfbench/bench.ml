(* perfbench: the repository benchmark (see NOTES.md beside this file).

     bench.exe --workload te-stream|typing|hot|am-stream --seed N --seconds S --trace 0|1

   Runs from the root of a checkout with the program built. The timed run
   (--trace 0) drives separately spawned [dggt serve] processes over
   loopback sockets and prints the end-to-end metrics; the traced run
   (--trace 1) prints the per-layer metrics. The last line of stdout is
   the result object; the first is the run header. Exit codes: 0 ok, 1 an
   output check failed, 2 a workload premise broke. *)

open Perfbench
module J = Dggt_server.Jsonio
module Engine = Dggt_core.Engine
module Stats = Dggt_core.Stats
module Domain = Dggt_domains.Domain
module Trace = Dggt_obs.Trace
module Session = Dggt_inc.Session
module Reuse = Dggt_inc.Reuse
module Autom = Dggt_autom.Autom
module Tree2expr = Dggt_core.Tree2expr

let now = Unix.gettimeofday

exception Premise of string

let premise fmt = Printf.ksprintf (fun s -> raise (Premise s)) fmt
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* workloads and their inputs                                         *)
(* ------------------------------------------------------------------ *)

type kind = Te_stream | Typing | Hot | Am_stream

let kinds = [ ("te-stream", Te_stream); ("typing", Typing); ("hot", Hot); ("am-stream", Am_stream) ]

(* Seconds one pass over a workload's input list takes on the reference
   host (2 cores). A run replays [passes] whole passes, computed from
   --seconds alone, so the input list, the sample count and hence the
   tail percentile are fixed by (--seconds, --seed) and never by how
   fast the program under test happens to run. *)
let pass_s = function Te_stream -> 1.2 | Typing -> 1.2 | Hot -> 0.025 | Am_stream -> 50.0

let passes kind seconds =
  max 1 (int_of_float (Float.round (seconds /. pass_s kind)))

(* One client where a second would only queue behind the first: streams
   serialize on the server's connection threads, and on [hot] a second
   client put four busy processes (client, router, two workers) on the
   two cores, so its tail measured the scheduler. *)
let clients = function Te_stream | Am_stream | Hot -> 1 | Typing -> 2
let shards = function Te_stream | Typing | Am_stream -> 0 | Hot -> 2

(* Requests in one pass of [hot]; its tail is then a p90. Sub-millisecond
   cache hits meet the host's scheduling hiccups in a few requests in a
   hundred: per-pass p95 and p99 tails of longer passes moved with them
   from run to run by 0.27 and 0.75 of their median. *)
let hot_per_pass = 100

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let pack_dir = function
  | "am" -> "examples/packs/astmatcher"
  | _ -> "examples/packs/textediting"

let truth =
  let cache = Hashtbl.create 2 in
  fun dom ->
    match Hashtbl.find_opt cache dom with
    | Some qs -> qs
    | None ->
        let qs = Packs.queries (pack_dir dom) in
        Hashtbl.add cache dom qs;
        qs

let by_id dom id = List.find (fun (q : Domain.query) -> q.id = id) (truth dom)

(* The accuracy floor a domain's answers must meet: the pack's own
   evaluation envelope. *)
let accuracy_floor dom = Packs.accuracy_floor (pack_dir dom)

let domain_of = function
  | "am" -> Dggt_domains.Astmatcher.domain
  | _ -> Dggt_domains.Text_editing.domain

let correct dom q code = Packs.correct (domain_of dom) q code

(* a codelet the wire carries must be a well-formed expression *)
let well_formed code = Result.is_ok (Tree2expr.parse code)

(* am-stream streams a fixed half of the ASTMatcher set: the odd ids,
   hard queries included at their natural rate. The seed orders it; it
   never changes which queries run, because per-query cost spans 10 ms to
   4 s and a seeded subset would move every latency metric. *)
let am_stream_set () = List.filter (fun (q : Domain.query) -> q.id mod 2 = 1) (truth "am")

(* set-up probes: cheap queries answered correctly, outside the
   am-stream set. A /synthesize answer fills only the plain-answer cache,
   never the ranked one te-stream's streams could replay. *)
let probe_queries = function
  | Am_stream -> [ ("am", by_id "am" 10) ]
  | Te_stream | Typing -> [ ("te", by_id "te" 3) ]
  | Hot -> [ ("te", by_id "te" 3); ("am", by_id "am" 10) ]

(* hot's working set: twelve queries from both domains, each on both
   /synthesize and /rank — 24 cache entries, far below the 512-entry LRU *)
let hot_combos () =
  let qs =
    List.map (fun id -> ("te", by_id "te" id)) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    @ List.map (fun id -> ("am", by_id "am" id)) [ 5; 7; 10; 30 ]
  in
  List.concat_map (fun (d, q) -> [ (d, q, `Synth); (d, q, `Rank) ]) qs

(* split a query into typeable words, never breaking a quoted literal *)
let edit_chunks q =
  let buf = Buffer.create 16 and out = ref [] and in_quote = ref false in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
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

type role = Word | Full | Punct

(* one as-you-type session: a revision per appended word (the last one
   is the full query), then a punctuation-only revision *)
let revisions text =
  let chunks = edit_chunks text in
  let n = List.length chunks in
  let prefix k = String.concat " " (List.filteri (fun i _ -> i < k) chunks) in
  List.init n (fun i -> (prefix (i + 1), if i + 1 = n then Full else Word))
  @ [ (prefix n ^ " .", Punct) ]

let json fields = J.to_string (J.Obj fields)

let synth_body dom (q : Domain.query) =
  json [ ("query", J.Str q.text); ("domain", J.Str dom) ]

let rank_body dom (q : Domain.query) =
  json [ ("query", J.Str q.text); ("domain", J.Str dom); ("k", J.Num 5.0) ]

(* Every input carries the index of the pass it belongs to: tails are
   taken per pass. *)
type inputs = {
  stream_items : (int * string * Domain.query) list;  (* te-stream, am-stream *)
  sessions : (int * Domain.query) list;               (* typing *)
  hot_reqs : (int * (string * Domain.query * [ `Synth | `Rank ])) list;  (* hot *)
}

let make_inputs kind ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let p = passes kind seconds in
  let repeat f = List.concat (List.init p (fun i -> List.map (fun x -> (i, x)) (f ()))) in
  let streams dom set =
    let items = repeat (fun () -> shuffle rng set) in
    { stream_items = List.map (fun (i, q) -> (i, dom, q)) items; sessions = []; hot_reqs = [] }
  in
  match kind with
  | Te_stream -> streams "te" (truth "te")
  | Am_stream -> streams "am" (am_stream_set ())
  | Typing ->
      let set = truth "te" in
      { stream_items = []; sessions = repeat (fun () -> shuffle rng set); hot_reqs = [] }
  | Hot ->
      let combos = Array.of_list (hot_combos ()) in
      let draw () = combos.(Random.State.int rng (Array.length combos)) in
      {
        stream_items = [];
        sessions = [];
        hot_reqs = List.init (p * hot_per_pass) (fun j -> (j / hot_per_pass, draw ()));
      }

(* ------------------------------------------------------------------ *)
(* judged requests                                                    *)
(* ------------------------------------------------------------------ *)

type sample = {
  domain : string;
  pass : int;
  item : string;           (* what the pass replays: a query, a session revision *)
  timed : bool;            (* a latency sample; session create/delete are not *)
  t0 : float;              (* just before the first request byte *)
  t1 : float;              (* the last response byte (a stream's done frame) *)
  lat_s : float;
  ttfc_s : float;
  err : string option;     (* the request failed *)
  wrong : string option;   (* the answer failed an output check *)
  scored : bool option;    (* scored against the ground truth: correct? *)
  engine_s : float;        (* engine time in the body; 0 for a cache hit *)
  cached : bool;
  candidates : int;        (* candidate frames of a stream *)
  splice : bool;
  body : string;           (* JSON body (a stream's done payload) *)
}

let blank domain =
  {
    domain;
    pass = 0;
    item = "";
    timed = true;
    t0 = 0.0;
    t1 = 0.0;
    lat_s = 0.0;
    ttfc_s = 0.0;
    err = None;
    wrong = None;
    scored = None;
    engine_s = 0.0;
    cached = false;
    candidates = 0;
    splice = false;
    body = "";
  }

let failed domain ?(timed = true) why = { (blank domain) with timed; err = Some why }

let codes_of field v =
  match J.member field v with
  | Some (J.Arr cs) -> List.filter_map J.str cs
  | _ -> []

let malformed codes =
  match List.find_opt (fun c -> not (well_formed c)) codes with
  | Some c -> Some ("malformed codelet " ^ c)
  | None -> None

(* --- te-stream, am-stream: one client, one stream after another ----- *)

let run_streams port items =
  List.map
    (fun ((_, dom, q) as item) ->
      ( item,
        try Ok (Client.stream port ~path:"/rank?stream=1" ~body:(rank_body dom q))
        with e -> Error (Printexc.to_string e) ))
    items

let judge_stream ((pass, dom, q), r) =
  let failed dom why = { (failed dom why) with pass } in
  match r with
  | Error m -> failed dom m
  | Ok (s : Client.stream) -> (
      let lat = s.s_done -. s.s_start in
      if s.s_status <> 200 then failed dom (Printf.sprintf "status %d" s.s_status)
      else
        match Sse.check_stream (List.map fst s.frames) with
        | Error m -> failed dom m
        | Ok _ when not s.clean_end -> failed dom "stream not closed by its last chunk"
        | Ok (payload, ncand) -> (
            match J.of_string payload with
            | Error m -> failed dom ("done payload: " ^ m)
            | Ok v ->
                let codes = codes_of "candidates" v in
                let ttfc =
                  match
                    List.find_opt (fun ((f : Sse.frame), _) -> f.event = "candidate") s.frames
                  with
                  | Some (_, t) -> t -. s.s_start
                  | None -> lat
                in
                {
                  (blank dom) with
                  pass;
                  item = Printf.sprintf "%s/%d" dom q.Domain.id;
                  t0 = s.s_start;
                  t1 = s.s_done;
                  lat_s = lat;
                  ttfc_s = ttfc;
                  wrong = malformed codes;
                  scored = Some (match codes with c :: _ -> correct dom q c | [] -> false);
                  candidates = ncand;
                  body = payload;
                }))

(* --- keep-alive clients -------------------------------------------- *)

(* a client's connection, reopened when the server closes it or a
   request fails *)
let keepalive port =
  let conn = ref None in
  let drop () =
    Option.iter Client.close !conn;
    conn := None
  in
  let call ~meth ~path ~body =
    match
      let c =
        match !conn with
        | Some c -> c
        | None ->
            let c = Client.connect port in
            conn := Some c;
            c
      in
      Client.call c ~meth ~path ?body ()
    with
    | r ->
        if not r.Client.reusable then drop ();
        Ok r
    | exception e ->
        drop ();
        Error (Printexc.to_string e)
  in
  (call, drop)

(* run [n] client threads, each [f i], and return their results in
   client order *)
let in_threads n f =
  let results = Array.make n [] in
  let ts = List.init n (fun i -> Thread.create (fun () -> results.(i) <- f i) ()) in
  List.iter Thread.join ts;
  Array.to_list results

(* --- typing: as-you-type sessions ---------------------------------- *)

type treq =
  | Create of (Client.reply, string) result
  | Rev of int * int * role * Domain.query * (Client.reply, string) result
      (* pass, revision number, ... *)
  | Delete of (Client.reply, string) result

let run_sessions port sessions =
  let mu = Mutex.create () and queue = ref sessions in
  let next () =
    Mutex.lock mu;
    let r = match !queue with [] -> None | q :: rest -> queue := rest; Some q in
    Mutex.unlock mu;
    r
  in
  in_threads (clients Typing) (fun _ ->
      let call, drop = keepalive port in
      let out = ref [] in
      let rec loop () =
        match next () with
        | None -> ()
        | Some (pass, (q : Domain.query)) ->
            let created =
              call ~meth:"POST" ~path:"/session" ~body:(Some (json [ ("domain", J.Str "te") ]))
            in
            out := Create created :: !out;
            (match created with
            | Ok r when r.Client.status = 201 -> (
                match Result.map (J.str_field "session") (J.of_string r.Client.body) with
                | Ok (Some id) ->
                    (* no "timeout" field: sending one would disarm the splice *)
                    List.iteri
                      (fun i (text, role) ->
                        out :=
                          Rev
                            ( pass,
                              i + 1,
                              role,
                              q,
                              call ~meth:"POST"
                                ~path:("/session/" ^ id ^ "/query")
                                ~body:(Some (json [ ("query", J.Str text) ])) )
                          :: !out)
                      (revisions q.text);
                    out := Delete (call ~meth:"DELETE" ~path:("/session/" ^ id) ~body:None) :: !out
                | _ -> ())
            | _ -> ());
            loop ()
      in
      Fun.protect ~finally:drop loop;
      List.rev !out)
  |> List.concat

let judge_sessions reqs =
  let full_code = ref None in
  List.map
    (fun r ->
      match r with
      | Create (Error m) | Delete (Error m) -> failed "te" ~timed:false m
      | Create (Ok x) when x.Client.status <> 201 ->
          failed "te" ~timed:false (Printf.sprintf "create: status %d" x.Client.status)
      | Delete (Ok x) when x.Client.status <> 200 ->
          failed "te" ~timed:false (Printf.sprintf "delete: status %d" x.Client.status)
      | Create (Ok _) | Delete (Ok _) -> { (blank "te") with timed = false }
      | Rev (pass, _, _, _, Error m) -> { (failed "te" m) with pass }
      | Rev (pass, i, role, q, Ok x) -> (
          let failed dom why = { (failed dom why) with pass } in
          if x.Client.status <> 200 then failed "te" (Printf.sprintf "status %d" x.Client.status)
          else
            match J.of_string x.Client.body with
            | Error m -> failed "te" ("body: " ^ m)
            | Ok v when J.bool_field "timed_out" v = Some true -> failed "te" "timed_out"
            | Ok v ->
                let code = J.str_field "code" v in
                let reuse = J.member "reuse" v in
                let revision = Option.bind reuse (J.int_field "revision") in
                let splice = Option.bind reuse (J.bool_field "splice") = Some true in
                let wrong =
                  if revision <> Some i then
                    Some (Printf.sprintf "revision %d reported as %s" i
                            (match revision with Some n -> string_of_int n | None -> "none"))
                  else
                    match (role, code) with
                    | _, Some c when not (well_formed c) -> Some ("malformed codelet " ^ c)
                    | Punct, _ when code <> !full_code ->
                        Some "punctuation-only revision changed the codelet"
                    | _ -> None
                in
                if role = Full then full_code := code;
                let lat = x.Client.t_end -. x.Client.t_start in
                {
                  (blank "te") with
                  pass;
                  item = Printf.sprintf "te/%d/%d" q.id i;
                  t0 = x.Client.t_start;
                  t1 = x.Client.t_end;
                  lat_s = lat;
                  ttfc_s = lat;
                  wrong;
                  scored =
                    (if role = Full then
                       Some (match code with Some c -> correct "te" q c | None -> false)
                     else None);
                  engine_s = Option.value (J.num_field "time_s" v) ~default:0.0;
                  splice;
                  body = x.Client.body;
                }))
    reqs

(* --- hot: cache-hot keep-alive traffic ------------------------------ *)

let hot_request call (dom, q, ep) =
  match ep with
  | `Synth -> call ~meth:"POST" ~path:"/synthesize" ~body:(Some (synth_body dom q))
  | `Rank -> call ~meth:"POST" ~path:"/rank" ~body:(Some (rank_body dom q))

let hot_answer ep v =
  match ep with
  | `Synth -> Option.to_list (J.str_field "code" v)
  | `Rank -> codes_of "candidates" v

(* Sequential, untimed: one request per combo, so each key is computed
   exactly once. Returns each combo's answer; any failure breaks the
   workload's premise. *)
let hot_warmup port combos =
  let call, drop = keepalive port in
  Fun.protect ~finally:drop (fun () ->
      List.map
        (fun ((dom, (q : Domain.query), ep) as combo) ->
          match hot_request call combo with
          | Error m -> premise "warm-up %s %S: %s" dom q.text m
          | Ok r when r.Client.status <> 200 ->
              premise "warm-up %s %S: status %d" dom q.text r.Client.status
          | Ok r -> (
              match J.of_string r.Client.body with
              | Error m -> premise "warm-up %s %S: %s" dom q.text m
              | Ok v -> (
                  match hot_answer ep v with
                  | [] -> premise "warm-up %s %S: no codelet" dom q.text
                  | codes -> (combo, codes))))
        combos)

let run_hot port reqs =
  let call, drop = keepalive port in
  Fun.protect ~finally:drop (fun () ->
      List.map (fun (pass, combo) -> ((pass, combo), hot_request call combo)) reqs)

let judge_hot answers ((pass, ((dom, q, ep) as combo)), r) =
  let failed dom why = { (failed dom why) with pass } in
  match r with
  | Error m -> failed dom m
  | Ok x when x.Client.status <> 200 -> failed dom (Printf.sprintf "status %d" x.Client.status)
  | Ok x -> (
      match J.of_string x.Client.body with
      | Error m -> failed dom ("body: " ^ m)
      | Ok v when J.bool_field "timed_out" v = Some true -> failed dom "timed_out"
      | Ok v ->
          let codes = hot_answer ep v in
          let lat = x.Client.t_end -. x.Client.t_start in
          let cached = J.bool_field "cached" v = Some true in
          {
            (blank dom) with
            pass;
            item =
              Printf.sprintf "%s/%d/%s" dom q.Domain.id (match ep with `Synth -> "synth" | `Rank -> "rank");
            t0 = x.Client.t_start;
            t1 = x.Client.t_end;
            lat_s = lat;
            ttfc_s = lat;
            wrong =
              (if codes <> List.assoc combo answers then Some "answer differs from warm-up"
               else None);
            scored = Some (match codes with c :: _ -> correct dom q c | [] -> false);
            engine_s =
              (if cached then 0.0 else Option.value (J.num_field "time_s" v) ~default:0.0);
            cached;
            body = x.Client.body;
          })

(* ------------------------------------------------------------------ *)
(* the server under test                                              *)
(* ------------------------------------------------------------------ *)

let tmpdir () = Filename.concat (Sys.getcwd ()) ".bench_tmp"
let boot_counter = ref 0

(* Spawn the server and wait for the first correct answer to a real
   request per domain the workload uses (not /healthz: the router answers
   that while its workers are still starting). Returns the fleet and the
   set-up time. *)
let boot kind =
  incr boot_counter;
  let log = Filename.concat (tmpdir ()) (Printf.sprintf "server-%d.log" !boot_counter) in
  let fleet = Fleet.spawn ~shards:(shards kind) ~tmpdir:(tmpdir ()) ~log in
  let deadline = fleet.Fleet.spawned_at +. 120.0 in
  List.iter
    (fun (dom, (q : Domain.query)) ->
      let rec attempt () =
        let retry why =
          (match Unix.waitpid [ Unix.WNOHANG ] fleet.Fleet.pid with
          | 0, _ -> ()
          | _ -> premise "server exited during set-up (see %s)" log
          | exception Unix.Unix_error _ -> ());
          if now () > deadline then premise "server not ready after 120 s: %s" why;
          Unix.sleepf 0.005;
          attempt ()
        in
        match
          Client.call_once fleet.Fleet.port ~meth:"POST" ~path:"/synthesize"
            ~body:(synth_body dom q) ()
        with
        | exception Unix.Unix_error (e, _, _) -> retry (Unix.error_message e)
        | exception Failure m -> retry m
        | r when r.Client.status = 200 -> (
            match Result.map (J.str_field "code") (J.of_string r.Client.body) with
            | Ok (Some c) when correct dom q c -> ()
            | _ -> premise "set-up probe %S answered wrongly: %s" q.text r.Client.body)
        | r -> retry (Printf.sprintf "status %d" r.Client.status)
      in
      attempt ())
    (probe_queries kind);
  let setup = now () -. fleet.Fleet.spawned_at in
  Fleet.discover_workers fleet;
  (fleet, setup)

let scrape port =
  let r = Client.call_once port ~meth:"GET" ~path:"/metrics" () in
  if r.Client.status <> 200 then premise "GET /metrics: status %d" r.Client.status;
  r.Client.body

(* Sum of the samples of one Prometheus series whose labels include
   every [key="value"] pair given (the router adds a shard label). *)
let series text name labels =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         let n = String.length name in
         if
           String.length line > n
           && String.sub line 0 n = name
           && (line.[n] = '{' || line.[n] = ' ')
         then
           let lbl =
             if line.[n] = '{' then
               match String.index_from_opt line n '}' with
               | Some j -> String.sub line n (j - n + 1)
               | None -> ""
             else ""
           in
           let has (k, v) =
             let needle = Printf.sprintf "%s=%S" k v in
             let rec find i =
               i + String.length needle <= String.length lbl
               && (String.sub lbl i (String.length needle) = needle || find (i + 1))
             in
             find 0
           in
           if List.for_all has labels then
             match String.rindex_opt line ' ' with
             | Some j -> (
                 let v = String.sub line (j + 1) (String.length line - j - 1) in
                 match float_of_string_opt v with
                 | Some v -> acc +. v
                 | None -> acc)
             | None -> acc
           else acc
         else acc)
       0.0

let delta before after name labels = series after name labels -. series before name labels

let cpu_ms fleet = List.fold_left (fun a p -> a +. Procfs.cpu_ms p) 0.0 (Fleet.pids fleet)
let rss_mb fleet = List.fold_left (fun a p -> a +. Procfs.hwm_mb p) 0.0 (Fleet.pids fleet)

(* ------------------------------------------------------------------ *)
(* one measured phase over HTTP                                       *)
(* ------------------------------------------------------------------ *)

type phase = {
  samples : sample list;
  cpu_ms : float;
  rss_mb : float;
  m0 : string;  (* /metrics before and after the timed phase *)
  m1 : string;
}

(* warm-up (hot only), then the timed phase between two /metrics scrapes
   and two /proc CPU readings *)
let http_phase kind fleet inputs =
  let port = fleet.Fleet.port in
  let answers = if kind = Hot then hot_warmup port (hot_combos ()) else [] in
  let m0 = scrape port in
  let c0 = cpu_ms fleet in
  let judge =
    match kind with
    | Te_stream | Am_stream ->
        let raw = run_streams port inputs.stream_items in
        fun () -> List.map judge_stream raw
    | Typing ->
        let raw = run_sessions port inputs.sessions in
        fun () -> judge_sessions raw
    | Hot ->
        let raw = run_hot port inputs.hot_reqs in
        fun () -> List.map (judge_hot answers) raw
  in
  let cpu = cpu_ms fleet -. c0 in
  let m1 = scrape port in
  let rss = rss_mb fleet in
  { samples = judge (); cpu_ms = cpu; rss_mb = rss; m0; m1 }

(* the premises a timed phase rests on *)
let check_premises kind ph =
  match kind with
  | Hot ->
      let misses =
        List.fold_left
          (fun a c -> a +. delta ph.m0 ph.m1 "dggt_cache_misses_total" [ ("cache", c) ])
          0.0 [ "q_cache"; "rank_cache" ]
      in
      let uncached = List.filter (fun s -> s.err = None && not s.cached) ph.samples in
      if misses > 0.0 || uncached <> [] then
        premise "hot: %d uncached answers and %.0f cache misses in the timed phase"
          (List.length uncached) misses
  | Typing ->
      if not (List.exists (fun s -> s.splice) ph.samples) then
        premise "typing: no revision spliced"
  | Te_stream | Am_stream ->
      (* every stream searches: none replays a cached answer *)
      let replays = delta ph.m0 ph.m1 "dggt_stream_cache_replays_total" [] in
      if replays > 0.0 then premise "%.0f streams replayed a cached answer" replays

(* ------------------------------------------------------------------ *)
(* output                                                             *)
(* ------------------------------------------------------------------ *)

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let commit () =
  if Sys.file_exists ".git" then
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c
  else "unknown"

(* digest of the program's sources, for checkouts without git metadata *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  files "lib" @ files "bin" @ [ "dune-project" ]
  |> List.map (fun p -> p ^ Digest.file p)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let print_header ~workload ~kind ~seed ~seconds ~trace ~timed_requests =
  (* the distinct items of a run: every pass replays each once, but a
     pass of hot draws its requests from 24 request kinds *)
  let items =
    match kind with
    | Hot -> List.length (hot_combos ())
    | Te_stream | Typing | Am_stream -> timed_requests / passes kind seconds
  in
  let server_cmd =
    String.concat " "
      ("dggt serve --port <ephemeral>"
       :: (if shards kind > 0 then [ "--shards"; string_of_int (shards kind) ] else []))
  in
  print_endline
    (json
       [
         ("run", J.Str "perfbench");
         ("workload", J.Str workload);
         ("seed", J.Num (float_of_int seed));
         ("seconds", J.Num seconds);
         ("trace", J.Num (float_of_int trace));
         ("cores", J.Num (float_of_int (Stdlib.Domain.recommended_domain_count ())));
         ("ocaml", J.Str Sys.ocaml_version);
         ("commit", J.Str (commit ()));
         ("source_digest", J.Str (source_digest ()));
         ("clients", J.Num (float_of_int (clients kind)));
         ("server_cmd", J.Str server_cmd);
         ("passes", J.Num (float_of_int (passes kind seconds)));
         ("timed_requests", J.Num (float_of_int timed_requests));
         ("items", J.Num (float_of_int items));
         ("tail_percentile", J.Num (float_of_int (Pstats.tail_percentile items)));
       ])

let timed_requests kind inputs =
  match kind with
  | Te_stream | Am_stream -> List.length inputs.stream_items
  | Typing ->
      List.fold_left
        (fun a (_, (q : Domain.query)) -> a + List.length (revisions q.text))
        0 inputs.sessions
  | Hot -> List.length inputs.hot_reqs

(* per-domain accuracy of the scored answers, each against its pack's
   floor *)
let accuracy samples =
  let scored = List.filter_map (fun s -> Option.map (fun c -> (s.domain, c)) s.scored) samples in
  let share l =
    float_of_int (List.length (List.filter snd l))
    /. float_of_int (max 1 (List.length l))
  in
  let doms = List.sort_uniq compare (List.map fst scored) in
  let below =
    List.filter
      (fun d -> share (List.filter (fun (d', _) -> d' = d) scored) < accuracy_floor d)
      doms
  in
  (share scored, below)

let output_checks samples = List.filter_map (fun s -> s.wrong) samples

(* ------------------------------------------------------------------ *)
(* the timed run: end-to-end metrics                                  *)
(* ------------------------------------------------------------------ *)

(* set-up is measured over several boots and reported as their median *)
let boots = 5

let pct xs p = if xs = [] then 0.0 else Pstats.percentile (Pstats.sorted_of_list xs) p

(* The set-up boots, then the timed phase on the last boot's server, with
   the host's speed probed before the boots, before the timed phase and
   after it. The probes are printed in the host line and never decide the
   result: a run on a slow or swinging host is reported as measured. *)
let timed_run kind inputs =
  let c0 = Calib.probe () in
  let setups = ref [] and fleet = ref None in
  for i = 1 to boots do
    let f, s = boot kind in
    setups := s :: !setups;
    if i < boots then Fleet.stop f else fleet := Some f
  done;
  let fleet = Option.get !fleet in
  let c1, ph =
    Fun.protect
      ~finally:(fun () -> Fleet.stop fleet)
      (fun () ->
        let c1 = Calib.probe () in
        (c1, http_phase kind fleet inputs))
  in
  let probes = [ c0; c1; Calib.probe () ] in
  print_endline
    (json
       [
         ( "host",
           J.Obj
             [
               ("probes_ms", J.Arr (List.map (fun p -> J.Num p) probes));
               ("drift", J.Num (Calib.drift probes));
             ] );
       ]);
  let broken = match check_premises kind ph with () -> None | exception Premise m -> Some m in
  let timed = List.filter (fun s -> s.timed) ph.samples in
  let ok_of = List.filter (fun s -> s.err = None) in
  let ok = ok_of timed in
  if ok = [] then premise "no timed request succeeded";
  (* Every pass replays the same items (a stream's query, a session
     revision, a hot request) in another order. Latency and time to first
     codelet are reduced to each item's median over the passes, and the
     run reports the median and the tail of those: an item's median leaves
     out the stalls a busy host puts on a few requests (on te-stream about
     one in a hundred, which decided a p99 of single requests), so the
     tail is that of the workload's slow items. The tail is the highest
     percentile with ten items beyond it: p95 of te-stream's 200 queries,
     p99 of typing's 1,509 revisions. qps is taken per pass, each pass
     being a stretch of the run, and reported as the median over them, so
     a few seconds of a slower host move a few passes and not the result. *)
  let item_medians f = Pstats.item_medians (List.map (fun s -> (s.item, f s)) ok) in
  let p50 f = Pstats.median (item_medians f) and tail f = Pstats.tail (item_medians f) in
  let by_pass =
    List.sort_uniq compare (List.map (fun s -> s.pass) timed)
    |> List.map (fun i -> List.filter (fun s -> s.pass = i) timed)
  in
  (* completed requests per second, from a pass's first request byte to
     its last response byte *)
  let pass_qps ss =
    match ok_of ss with
    | [] -> None
    | ok ->
        let t0 = List.fold_left (fun a s -> Float.min a s.t0) Float.infinity ok
        and t1 = List.fold_left (fun a s -> Float.max a s.t1) Float.neg_infinity ok in
        Some (float_of_int (List.length ok) /. (t1 -. t0))
  in
  let failed = List.length (List.filter (fun s -> s.err <> None) ph.samples) in
  let attempted = List.length ph.samples in
  let acc, below = accuracy ph.samples in
  let wrong = output_checks ph.samples in
  List.iter (fun s -> Option.iter (log "failed request: %s") s.err) ph.samples;
  List.iter (log "output check: %s") wrong;
  List.iter
    (fun d -> log "accuracy of %s answers below the pack floor %.2f" d (accuracy_floor d))
    below;
  print_result
    ~correct:(wrong = [] && below = [] && broken = None)
    ~attempted ~failed
    [
      ("setup_s", "s", Pstats.median !setups);
      ("latency_p50_ms", "ms", p50 (fun s -> s.lat_s *. 1000.0));
      ("latency_tail_ms", "ms", tail (fun s -> s.lat_s *. 1000.0));
      ("ttfc_p50_ms", "ms", p50 (fun s -> s.ttfc_s *. 1000.0));
      ("ttfc_tail_ms", "ms", tail (fun s -> s.ttfc_s *. 1000.0));
      ("qps", "1/s", Pstats.median (List.filter_map pass_qps by_pass));
      ("cpu_ms_per_req", "ms", ph.cpu_ms /. float_of_int (List.length ok));
      ("accuracy", "share", acc);
      ("success_rate", "share", 1.0 -. (float_of_int failed /. float_of_int attempted));
      ("rss_peak_mb", "MB", ph.rss_mb);
    ];
  match broken with
  | Some m -> premise "%s" m
  | None -> if wrong <> [] || below <> [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* the traced run: per-layer metrics                                  *)
(* ------------------------------------------------------------------ *)

type dom_setup = {
  tag : string;
  dom : Domain.t;
  autom : Autom.t;
  grammar_s : float;  (* forcing the grammar graph and the API document *)
  autom_s : float;    (* compiling the automaton *)
}

let setup_probe () =
  let one tag (d : Domain.t) =
    let t0 = now () in
    let g = Lazy.force d.graph in
    ignore (Lazy.force d.doc);
    let t1 = now () in
    let a = Autom.compile g in
    let t2 = now () in
    { tag; dom = d; autom = a; grammar_s = t1 -. t0; autom_s = t2 -. t1 }
  in
  let doms =
    [ one "am" Dggt_domains.Astmatcher.domain; one "te" Dggt_domains.Text_editing.domain ]
  in
  let st = Gc.quick_stat () in
  (doms, float_of_int (st.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0)

(* one engine call, traced by a fresh sink *)
type call = {
  key : string;                      (* the query text *)
  cdomain : string;
  wall_s : float;                    (* around the call *)
  stages : (string * float) list;    (* top-level spans, seconds *)
  alloc_w : float;                   (* minor-heap words allocated *)
  stats : Stats.t;
  outcome : Engine.outcome;
  reuse : Reuse.t option;
  ranked : bool;
}

let engine_call ~key ~cdomain ~ranked f =
  let sink = Trace.create () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let outcome, reuse = f sink in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  {
    key;
    cdomain;
    wall_s = t1 -. t0;
    stages = Trace.durations (Trace.result sink);
    alloc_w = w1 -. w0;
    stats = outcome.Engine.stats;
    outcome;
    reuse;
    ranked;
  }

let traced sink s = Engine.with_cfg (fun c -> { c with Engine.trace = Some sink }) s

(* the in-process pass over a workload's inputs, in the same order *)
let engine_pass kind doms inputs =
  let session tag =
    let d = List.find (fun x -> x.tag = tag) doms in
    (* WordToAPI memoized per domain, as the server's word cache does, so
       that engine times here compare with the server's *)
    let memo = Hashtbl.create 1024 in
    let word2api ~lemma ~pos compute =
      match Hashtbl.find_opt memo (lemma, pos) with
      | Some c -> c
      | None ->
          let c = compute () in
          Hashtbl.add memo (lemma, pos) c;
          c
    in
    Domain.configure
      ~caches:{ Engine.word2api = Some word2api; edge2path = None }
      ~autom:d.autom d.dom
      {
        (Engine.default Engine.Dggt_alg) with
        Engine.timeout_s = Some Dggt_server.Serve.default_params.default_timeout_s;
      }
  in
  let respond s ~cdomain ~ranked text =
    engine_call ~key:text ~cdomain ~ranked (fun sink ->
        ( Engine.respond (traced sink s)
            {
              Engine.input = Engine.Text text;
              mode = (if ranked then Engine.Ranked 5 else Engine.Plain);
            },
          None ))
  in
  match kind with
  | Te_stream | Am_stream ->
      let sessions = List.map (fun dom -> (dom, session dom)) [ "am"; "te" ] in
      List.map
        (fun (_, dom, (q : Domain.query)) ->
          respond (List.assoc dom sessions) ~cdomain:dom ~ranked:true q.text)
        inputs.stream_items
  | Typing ->
      let s = session "te" in
      List.concat_map
        (fun (_, (q : Domain.query)) ->
          let ss = Session.create s in
          List.map
            (fun (text, _) ->
              engine_call ~key:text ~cdomain:"te" ~ranked:false (fun sink ->
                  let o, r =
                    Session.query ~tweak:(fun c -> { c with Engine.trace = Some sink }) ss text
                  in
                  (o, Some r)))
            (revisions q.text))
        inputs.sessions
  | Hot ->
      let sessions = [ ("am", session "am"); ("te", session "te") ] in
      List.map
        (fun (dom, (q : Domain.query), ep) ->
          respond (List.assoc dom sessions) ~cdomain:dom ~ranked:(ep = `Rank) q.text)
        (hot_combos ())

(* the six pipeline stages' top-level spans, summed per call *)
let stage_s c stage =
  List.fold_left (fun a (n, d) -> if n = stage then a +. d else a) 0.0 c.stages

let ran c stage = List.mem_assoc stage c.stages

(* Outside hot the six stage times must account for the
   engine time measured around the same calls, within this share: what
   lies outside the spans is the engine's glue (and, for session
   revisions, the diff). hot's pass is its 24 warm-up keys, too little
   engine time for the check to be steady, so there it is only reported. *)
let stage_sum_floor = 0.90

(* the longest run, in --seconds, the traced run replays (see main) *)
let traced_s = 10.0

let reps = 50

(* microseconds per call of [f], over [reps] calls *)
let time_us f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps *. 1e6

let first n l = List.filteri (fun i _ -> i < n) l

let render c =
  let domain = c.cdomain in
  if c.ranked then
    Dggt_server.Wire.rank_json ~domain ~query:c.key ~k:5 ~cached:false c.outcome.Engine.ranked
    |> J.to_string
  else
    Dggt_server.Wire.outcome_json ~domain ~engine:"dggt" ~query:c.key ~cached:false
      ~alternatives:[] c.outcome
    |> J.to_string

let ratio hits misses = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0

let traced_run kind ~seed inputs =
  let t_start = now () in
  let calib_ms = Calib.probe () in
  let doms, heap_mb = setup_probe () in
  let dsetup tag = List.find (fun d -> d.tag = tag) doms in
  (* the workload over HTTP, once *)
  let fleet, _ = boot kind in
  let ph =
    Fun.protect ~finally:(fun () -> Fleet.stop fleet) (fun () -> http_phase kind fleet inputs)
  in
  check_premises kind ph;
  (* the router hop: the same cache-hot mix against a single-process
     server; on workloads without a router, a short hot mix through
     both *)
  let routed, hop_inputs =
    match kind with
    | Hot -> (ph, inputs)
    | Te_stream | Typing | Am_stream ->
        let probe =
          {
            inputs with
            (* four passes: 400 requests *)
            hot_reqs = (make_inputs Hot ~seed ~seconds:(4.0 *. pass_s Hot)).hot_reqs;
          }
        in
        let f, _ = boot Hot in
        (Fun.protect ~finally:(fun () -> Fleet.stop f) (fun () -> http_phase Hot f probe), probe)
  in
  (* the streaming emitter over HTTP: a stream workload's own streams,
     else ten cheap ASTMatcher streams (even ids, never an am-stream
     query) against the single-process server *)
  let single, probe_streams =
    let f, _ = boot Typing (* one process, default settings *) in
    Fun.protect
      ~finally:(fun () -> Fleet.stop f)
      (fun () ->
        let ph = http_phase Hot f hop_inputs in
        let probe =
          List.map (fun id -> (0, "am", by_id "am" id)) [ 4; 6; 8; 10; 12; 14; 48; 78; 80; 92 ]
        in
        ( ph,
          if inputs.stream_items <> [] then []
          else List.map judge_stream (run_streams f.Fleet.port probe) ))
  in
  List.iter (fun s -> Option.iter (premise "stream probe: %s") s.err) probe_streams;
  check_premises Hot routed;
  check_premises Hot single;
  let lat_ms ph =
    List.filter_map
      (fun s -> if s.err = None && s.timed then Some (s.lat_s *. 1000.0) else None)
      ph.samples
  in
  (* the in-process engine pass, traced *)
  let memo0 = List.map (fun d -> Autom.memo_counters d.autom) doms in
  let calls = engine_pass kind doms inputs in
  let memo1 = List.map (fun d -> Autom.memo_counters d.autom) doms in
  let memo f = List.fold_left2 (fun a m0 m1 -> a + f m1 - f m0) 0 memo0 memo1 in
  let memo_hits = memo (fun m -> m.Autom.hits) and memo_misses = memo (fun m -> m.Autom.misses) in
  (* the incremental layer: typing's own sessions, else 20 seeded typing
     sessions replayed in process *)
  let inc_calls =
    match kind with
    | Typing -> calls
    | Te_stream | Am_stream | Hot ->
        let rng = Random.State.make [| seed |] in
        let sessions = List.map (fun q -> (0, q)) (first 20 (shuffle rng (truth "te"))) in
        engine_pass Typing doms { inputs with sessions }
  in
  (* stage accounting; a spliced revision replays counters it did not
     compute, so counts come from the calls that ran PathMerge *)
  let engine_total = List.fold_left (fun a c -> a +. c.wall_s) 0.0 calls in
  let six = Engine.stage_names in
  let stage_total st = List.fold_left (fun a c -> a +. stage_s c st) 0.0 calls in
  let stage_sum = List.fold_left (fun a st -> a +. stage_total st) 0.0 six in
  let stage_sum_share = stage_sum /. engine_total in
  if kind <> Hot && (stage_sum_share < stage_sum_floor || stage_sum_share > 1.0) then
    premise "stage times cover %.3f of engine time (expected %.2f..1)" stage_sum_share
      stage_sum_floor;
  let stage_ms st =
    List.filter_map (fun c -> if ran c st then Some (stage_s c st *. 1000.0) else None) calls
  in
  let computed = List.filter (fun c -> ran c "PathMerge") calls in
  let count f = float_of_int (List.fold_left (fun a c -> a + f c.stats) 0 computed) in
  let share st = stage_total st /. engine_total in
  (* the incremental layer *)
  let reuses = List.filter_map (fun c -> c.reuse) inc_calls in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 reuses) in
  let reused = sum (fun r -> r.Reuse.words.reused + r.pairs.reused + r.dgg_rows.reused)
  and rcomputed = sum (fun r -> r.Reuse.words.computed + r.pairs.computed + r.dgg_rows.computed) in
  (* serving overhead: client latency minus engine time; a stream's body
     carries no engine time, so the stream workloads use the traced pass's
     time for the same query at the same position *)
  let timed_samples = List.filter (fun s -> s.timed) ph.samples in
  let engine_s =
    match kind with
    | Te_stream | Am_stream -> List.map (fun c -> c.wall_s) calls
    | Typing | Hot -> List.map (fun s -> s.engine_s) timed_samples
  in
  let overhead =
    List.concat
      (List.map2
         (fun s e -> if s.err = None then [ (s.lat_s -. e) *. 1000.0 ] else [])
         timed_samples engine_s)
  in
  let cache (ph : phase) c =
    let h = delta ph.m0 ph.m1 "dggt_cache_hits_total" [ ("cache", c) ]
    and m = delta ph.m0 ph.m1 "dggt_cache_misses_total" [ ("cache", c) ] in
    (h, m)
  in
  let outcomes o = delta ph.m0 ph.m1 "dggt_requests_total" [ ("outcome", o) ] in
  (* the whole-query caches over the hot mix (hot's own phase, else the
     router-hop probe): the other workloads bypass them *)
  let wh, wm = cache ph "word_cache"
  and qh, qm = cache routed "q_cache"
  and rh, rm = cache routed "rank_cache" in
  let render_us = List.map (fun c -> time_us (fun () -> render c)) (first 500 calls) in
  let parse_us =
    List.filter (fun s -> s.body <> "") ph.samples
    |> first 500
    |> List.map (fun s -> time_us (fun () -> J.of_string s.body))
  in
  let streams =
    if inputs.stream_items <> [] then List.filter (fun s -> s.err = None) ph.samples
    else probe_streams
  in
  let am = dsetup "am" and te = dsetup "te" in
  let correct = output_checks ph.samples = [] && snd (accuracy ph.samples) = [] in
  let attempted = List.length ph.samples in
  let failed = List.length (List.filter (fun s -> s.err <> None) ph.samples) in
  print_result ~correct ~attempted ~failed
    [
      ("setup.grammar_s.am", "s", am.grammar_s);
      ("setup.grammar_s.te", "s", te.grammar_s);
      ("setup.autom_s.am", "s", am.autom_s);
      ("setup.autom_s.te", "s", te.autom_s);
      ("setup.heap_mb", "MB", heap_mb);
      ("core.parse.ms_p50", "ms", pct (stage_ms "DependencyParse") 50.0);
      ("core.parse.ms_p99", "ms", pct (stage_ms "DependencyParse") 99.0);
      ("core.prune.ms_p50", "ms", pct (stage_ms "QueryPrune") 50.0);
      ("core.prune.ms_p99", "ms", pct (stage_ms "QueryPrune") 99.0);
      ("core.word2api.ms_p50", "ms", pct (stage_ms "WordToAPI") 50.0);
      ("core.word2api.ms_p99", "ms", pct (stage_ms "WordToAPI") 99.0);
      ("core.word2api.share", "share", share "WordToAPI");
      ("server.cache.word_cache.hit_ratio", "share", ratio wh wm);
      ("server.cache.word_cache.hits", "count", wh);
      ("server.cache.word_cache.misses", "count", wm);
      ("core.edge2path.ms_p50", "ms", pct (stage_ms "EdgeToPath") 50.0);
      ("core.edge2path.ms_p99", "ms", pct (stage_ms "EdgeToPath") 99.0);
      ("core.edge2path.share", "share", share "EdgeToPath");
      ("core.edge2path.paths", "count", count (fun s -> s.Stats.orig_paths));
      ("autom.memo_hit_ratio", "share", ratio (float_of_int memo_hits) (float_of_int memo_misses));
      ("autom.memo_hits", "count", float_of_int memo_hits);
      ("autom.memo_misses", "count", float_of_int memo_misses);
      ("core.pathmerge.ms_p50", "ms", pct (stage_ms "PathMerge") 50.0);
      ("core.pathmerge.ms_p99", "ms", pct (stage_ms "PathMerge") 99.0);
      ("core.pathmerge.share", "share", share "PathMerge");
      ("core.pathmerge.dgg_edges", "count", count (fun s -> s.Stats.dgg_edges));
      ("core.pathmerge.dgg_improvements", "count", count (fun s -> s.Stats.dgg_improvements));
      ("core.pathmerge.combos_merged", "count", count (fun s -> s.Stats.combos_merged));
      ("core.orphan.reloc_graphs", "count", count (fun s -> s.Stats.reloc_graphs));
      ("core.tree2expr.ms_p50", "ms", pct (stage_ms "TreeToExpr") 50.0);
      ("core.tree2expr.ms_p99", "ms", pct (stage_ms "TreeToExpr") 99.0);
      ( "stream.candidates_per_req",
        "count",
        float_of_int (List.fold_left (fun a s -> a + s.candidates) 0 streams)
        /. float_of_int (max 1 (List.length streams)) );
      ( "stream.ttfc_share_p50",
        "share",
        pct (List.map (fun s -> s.ttfc_s /. s.lat_s) streams) 50.0 );
      ("core.engine.ms_p50", "ms", pct (List.map (fun c -> c.wall_s *. 1000.0) calls) 50.0);
      ("core.engine.ms_p99", "ms", pct (List.map (fun c -> c.wall_s *. 1000.0) calls) 99.0);
      ("core.engine.alloc_kw_p50", "kw", pct (List.map (fun c -> c.alloc_w /. 1000.0) calls) 50.0);
      ("core.engine.alloc_kw_p99", "kw", pct (List.map (fun c -> c.alloc_w /. 1000.0) calls) 99.0);
      ("core.stage_sum_share", "share", stage_sum_share);
      ( "inc.splice_share",
        "share",
        float_of_int (List.length (List.filter (fun r -> r.Reuse.splice) reuses))
        /. float_of_int (max 1 (List.length reuses)) );
      ("inc.reuse_ratio", "share", ratio reused rcomputed);
      ("inc.reused", "count", reused);
      ("inc.computed", "count", rcomputed);
      ("inc.words_computed", "count", sum (fun r -> r.Reuse.words.computed));
      ("inc.pairs_computed", "count", sum (fun r -> r.Reuse.pairs.computed));
      ("inc.dgg_rows_computed", "count", sum (fun r -> r.Reuse.dgg_rows.computed));
      ("inc.ms_p50", "ms", pct (List.map (fun c -> c.wall_s *. 1000.0) inc_calls) 50.0);
      ("server.overhead_ms_p50", "ms", pct overhead 50.0);
      ("server.overhead_ms_p99", "ms", pct overhead 99.0);
      ("server.wire.render_us_p50", "us", pct render_us 50.0);
      ("server.jsonio.parse_us_p50", "us", pct parse_us 50.0);
      ("server.rejected", "count", outcomes "rejected");
      ("server.expired", "count", outcomes "expired");
      ("server.timeouts", "count", outcomes "timeout");
      ("server.cache.q_cache.hit_ratio", "share", ratio qh qm);
      ("server.cache.q_cache.hits", "count", qh);
      ("server.cache.q_cache.misses", "count", qm);
      ("server.cache.rank_cache.hit_ratio", "share", ratio rh rm);
      ("server.cache.rank_cache.hits", "count", rh);
      ("server.cache.rank_cache.misses", "count", rm);
      ("shard.hop_ms_p50", "ms", pct (lat_ms routed) 50.0 -. pct (lat_ms single) 50.0);
      ("shard.hop_ms_p99", "ms", pct (lat_ms routed) 99.0 -. pct (lat_ms single) 99.0);
      ("shard.retries", "count", delta routed.m0 routed.m1 "dggt_shard_retries_total" []);
      ("shard.respawns", "count", delta routed.m0 routed.m1 "dggt_shard_respawns_total" []);
      ("trace.wall_s", "s", now () -. t_start);
      ("host.calib_ms", "ms", calib_ms);
    ];
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME te-stream, typing, hot or am-stream");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal run length");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload kinds with
    | Some k -> k
    | None ->
        log "unknown workload %S (te-stream, typing, hot, am-stream)" !workload;
        exit 2
  in
  List.iter
    (fun f ->
      if not (Sys.file_exists f) then begin
        log "%s missing: run from the root of a built checkout" f;
        exit 2
      end)
    [
      Fleet.exe ();
      "examples/packs/astmatcher/queries.tsv";
      "examples/packs/textediting/queries.tsv";
    ];
  (* server logs and router sockets of earlier runs *)
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists (tmpdir ()) then
    Array.iter (fun f -> rm_rf (Filename.concat (tmpdir ()) f)) (Sys.readdir (tmpdir ()))
  else Unix.mkdir (tmpdir ()) 0o755;
  (* the servers must not outlive the benchmark, however it ends *)
  at_exit Fleet.stop_all;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The traced run replays at most [traced_s] seconds' worth of passes:
     it runs the workload over HTTP and again in process, with probes
     besides, and must end well within three minutes on a slow host. *)
  let seconds = if !trace = 0 then !seconds else Float.min !seconds traced_s in
  let inputs = make_inputs kind ~seed:!seed ~seconds in
  print_header ~workload:!workload ~kind ~seed:!seed ~seconds ~trace:!trace
    ~timed_requests:(timed_requests kind inputs);
  let code =
    try if !trace = 0 then timed_run kind inputs else traced_run kind ~seed:!seed inputs
    with Premise m ->
      log "premise broken: %s" m;
      2
  in
  exit code
