(* dggt — the command-line front end.

     dggt synth  -d textediting "delete all numbers"
     dggt synth  -d astmatcher --engine hisyn "find all virtual methods"
     dggt explain -d textediting "insert \"-\" at the start of each line"
     dggt eval   -d astmatcher --timeout 5 --jobs 4
     dggt autom  -d astmatcher
     dggt serve  --port 8080 --workers 4 --queue 64 --cache-size 512
     dggt pack check examples/packs/textediting
     dggt pack dump -d textediting /tmp/te-pack

   `synth` prints the codelet; `explain` dumps every pipeline stage
   (dependency parse, pruned graph, WordToAPI map, orphans, statistics);
   `eval` sweeps a benchmark domain and reports accuracy/timeouts; `autom`
   compiles and describes a domain's grammar automaton; `serve` runs the
   long-lived HTTP synthesis service (see lib/server/); `pack` validates
   and exports on-disk domain packs (see lib/pack/).

   Every synthesis command accepts --packs DIR: its subdirectories are
   loaded as domain packs next to the built-ins, and -d resolves against
   the combined registry (names and aliases, case-insensitive). *)

open Cmdliner
open Dggt_core
open Dggt_domains
module Nlu = Dggt_nlu
module Registry = Dggt_pack.Domain_registry

let algorithm_conv =
  Arg.conv
    ( (function
      | "dggt" -> Ok Engine.Dggt_alg
      | "hisyn" -> Ok Engine.Hisyn_alg
      | s -> Error (`Msg (Printf.sprintf "unknown engine %S (dggt|hisyn)" s))),
      fun fmt -> function
        | Engine.Dggt_alg -> Format.pp_print_string fmt "dggt"
        | Engine.Hisyn_alg -> Format.pp_print_string fmt "hisyn" )

let domain_arg =
  Arg.(
    value & opt string "textediting"
    & info [ "d"; "domain" ] ~docv:"DOMAIN"
        ~doc:
          "Target domain, by name or alias (built-ins: textediting/te, \
           astmatcher/am; more via --packs).")

let packs_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "packs" ] ~docv:"DIR"
        ~doc:
          "Load every subdirectory of $(docv) that contains a domain.pack \
           as a domain pack, alongside the built-ins.")

let engine_arg =
  Arg.(
    value
    & opt algorithm_conv Engine.Dggt_alg
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"Synthesis engine (dggt|hisyn).")

let timeout_arg =
  Arg.(
    value & opt float 20.0
    & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc:"Per-query wall-clock budget.")

let query_arg =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY" ~doc:"The query words.")

let top_arg =
  Arg.(
    value & opt int 1
    & info [ "top" ] ~docv:"N"
        ~doc:
          "Print the $(docv) best candidate codelets instead of just the \
           winner (the chart runs under the Top-k semiring; the first line \
           is always the codelet a plain run would print).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains evaluating whole queries concurrently (1 = \
           sequential). Results are reported in query order and are \
           byte-identical at every setting.")

(* built-ins plus --packs, or the load error's file:line diagnostic *)
let registry_of packs =
  let reg = Registry.create () in
  match packs with
  | None -> Ok reg
  | Some dir -> (
      match Registry.load_dir reg dir with
      | Ok _ -> Ok reg
      | Error e -> Error (Dggt_domains.Err.to_string e))

let resolve_domain reg name =
  match Registry.find reg name with
  | Some d -> Ok d
  | None ->
      Error
        (Printf.sprintf "unknown domain %S (known: %s)" name
           (String.concat ", "
              (List.map
                 (fun (d : Domain.t) -> d.Domain.name)
                 (Registry.domains reg))))

(* resolve -d through the registry and hand the Domain.t to [f] *)
let with_domain packs name f =
  match registry_of packs with
  | Error msg -> `Error (false, msg)
  | Ok reg -> (
      match resolve_domain reg name with
      | Error msg -> `Error (false, msg)
      | Ok dom -> f dom)

(* spin up the whole-query fan-out pool for the command's lifetime; 1 =
   sequential, no pool *)
let with_pool jobs f =
  if jobs > 1 then
    let pool = Dggt_par.Pool.create ~workers:jobs () in
    Fun.protect
      ~finally:(fun () -> Dggt_par.Pool.shutdown pool)
      (fun () -> f (Some pool))
  else f None

let config dom alg timeout =
  Domain.configure dom
    { (Engine.default alg) with Engine.timeout_s = Some timeout }

(* --- synth --------------------------------------------------------- *)

let synth_cmd =
  let run dname packs alg timeout top words =
    with_domain packs dname (fun dom ->
        let query = String.concat " " words in
        let ses = config dom alg timeout in
        let o =
          Engine.respond ses
            { Engine.input = Engine.Text query; mode = Engine.Plain }
        in
        match o.Engine.code with
        | Some code ->
            if top > 1 then begin
              (* ranked mode: the head is [code] by construction, so the
                 plain run above is not wasted — it provides the timing
                 and size lines either way *)
              let hints =
                (Engine.respond ses
                   { Engine.input = Engine.Text query; mode = Engine.Ranked top })
                  .Engine.ranked
              in
              List.iteri
                (fun i (r : Engine.ranked) ->
                  Format.printf "%d. %s  (size %d, covers %d, score %.2f)@."
                    (i + 1) r.Engine.code r.Engine.size r.Engine.coverage
                    r.Engine.score)
                hints
            end
            else Format.printf "%s@." code;
            Format.eprintf "(%.1f ms, %d APIs)@." (o.Engine.time_s *. 1000.)
              (Option.value o.Engine.cgt_size ~default:0);
            `Ok ()
        | None ->
            Format.eprintf "no codelet: %s@."
              (Option.value o.Engine.failure ~default:"unknown failure");
            `Error (false, "synthesis failed"))
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize a codelet from a natural-language query.")
    Term.(
      ret
        (const run $ domain_arg $ packs_arg $ engine_arg $ timeout_arg
       $ top_arg $ query_arg))

(* --- explain ------------------------------------------------------- *)

let explain_cmd =
  let run dname packs alg timeout top words =
    with_domain packs dname (fun dom ->
        let query = String.concat " " words in
        let o =
          Dggt_eval.Explain.run Format.std_formatter ~timeout_s:timeout
            ~algorithm:alg ~top dom query
        in
        if o.Engine.code <> None then `Ok ()
        else `Error (false, "synthesis failed"))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Trace one query through the six-step pipeline and narrate every \
          stage's decisions (candidate APIs, path counts, pruning, \
          relocation, DGG updates). With --top N, also narrate the n-best \
          candidates the Top-k chart kept.")
    Term.(
      ret
        (const run $ domain_arg $ packs_arg $ engine_arg $ timeout_arg
       $ top_arg $ query_arg))

(* --- repl ---------------------------------------------------------- *)

let repl_cmd =
  let run dname packs alg timeout =
    with_domain packs dname (fun dom ->
        Dggt_inc.Repl.run
          ~prompt:(dom.Domain.name ^ "> ")
          (config dom alg timeout);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Interactive incremental synthesis: each line is a revision of the \
          query, answered with the codelet and a reuse summary (words/paths \
          kept from the previous revision, or a whole-pipeline splice). \
          Commands: :help, :reset, :trace, :stats, :quit.")
    Term.(
      ret
        (const run $ domain_arg $ packs_arg $ engine_arg $ timeout_arg))

(* --- eval ---------------------------------------------------------- *)

let check_envelope_arg =
  Arg.(
    value & flag
    & info [ "check-envelope" ]
        ~doc:
          "After the run, compare accuracy and p95 latency against the \
           domain pack's expect-accuracy / expect-p95-ms envelope and exit \
           non-zero on any violation (the CI regression gate). Requires a \
           pack-loaded domain (--packs) whose manifest pins an envelope.")

(* the envelope lives in the pack manifest, read into the domain at load *)
let envelope_of reg dname =
  match Registry.find_entry reg dname with
  | Some { Registry.origin = Registry.Pack _; domain = d; _ } ->
      Ok
        {
          Dggt_eval.Envelope.min_accuracy = d.Dggt_domains.Domain.expect_accuracy;
          max_p95_ms = d.Dggt_domains.Domain.expect_p95_ms;
        }
  | Some _ ->
      Error
        (Printf.sprintf
           "--check-envelope: %S is a built-in, not a pack; envelopes live \
            in domain.pack manifests (use --packs)"
           dname)
  | None -> Error (Printf.sprintf "unknown domain %S" dname)

let eval_cmd =
  let run dname packs alg timeout jobs check_envelope =
    match registry_of packs with
    | Error msg -> `Error (false, msg)
    | Ok reg -> (
        match resolve_domain reg dname with
        | Error msg -> `Error (false, msg)
        | Ok dom ->
            with_pool jobs (fun pool ->
                let r =
                  Dggt_eval.Runner.run_domain ~timeout_s:timeout ?pool
                    ~progress:(fun i n ->
                      if i mod 25 = 0 || i = n then
                        Format.eprintf "  %d/%d@." i n)
                    dom alg
                in
                Format.printf
                  "%s / %s: accuracy %.3f, %d timeouts, %.2f s total@."
                  r.Dggt_eval.Runner.domain_name
                  (match alg with
                  | Engine.Dggt_alg -> "DGGT"
                  | Engine.Hisyn_alg -> "HISyn")
                  (Dggt_eval.Runner.accuracy r)
                  (Dggt_eval.Runner.timeouts r)
                  (Dggt_eval.Runner.total_time r);
                if not check_envelope then `Ok ()
                else
                  match envelope_of reg dname with
                  | Error msg -> `Error (false, msg)
                  | Ok exp ->
                      let v = Dggt_eval.Envelope.check exp r in
                      Format.printf
                        "envelope: accuracy %.3f (floor %s), p95 %.1f ms \
                         (ceiling %s)@."
                        v.Dggt_eval.Envelope.accuracy
                        (match exp.Dggt_eval.Envelope.min_accuracy with
                        | Some f -> Printf.sprintf "%.3f" f
                        | None -> "none")
                        v.Dggt_eval.Envelope.p95_ms
                        (match exp.Dggt_eval.Envelope.max_p95_ms with
                        | Some c -> Printf.sprintf "%.1f ms" c
                        | None -> "none");
                      if Dggt_eval.Envelope.ok v then `Ok ()
                      else begin
                        List.iter
                          (fun s ->
                            Format.eprintf "envelope violation: %s@." s)
                          v.Dggt_eval.Envelope.violations;
                        `Error (false, "eval envelope violated")
                      end))
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Run a benchmark domain's full query set.")
    Term.(
      ret
        (const run $ domain_arg $ packs_arg $ engine_arg $ timeout_arg
       $ jobs_arg $ check_envelope_arg))

(* --- autom --------------------------------------------------------- *)

let autom_cmd =
  let run dname packs =
    with_domain packs dname (fun dom ->
        Format.printf "%s: %a@." dom.Domain.name Dggt_autom.Autom.pp_stats
          (Lazy.force dom.Domain.autom);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "autom"
       ~doc:
         "Compile the domain's grammar into the EdgeToPath automaton and \
          print its vitals: node/API/transition counts, distance rows, \
          content digest and compile time.")
    Term.(ret (const run $ domain_arg $ packs_arg))

(* --- serve --------------------------------------------------------- *)

let serve_cmd =
  let open Dggt_server in
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Listen port (0 = ephemeral).")
  in
  let addr_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"ADDR" ~doc:"Listen address.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:"Worker pool size (0 = one per core).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bound on queued requests; a full queue answers 503 with \
             Retry-After.")
  in
  let cache_arg =
    Arg.(
      value & opt int 512
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Whole-query LRU entries (per-stage caches get 4x this; 0 \
             disables caching).")
  in
  let serve_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "t"; "timeout" ] ~docv:"SECONDS"
          ~doc:"Default per-request engine budget.")
  in
  let trace_buffer_arg =
    Arg.(
      value & opt int 32
      & info [ "trace-buffer" ] ~docv:"N"
          ~doc:
            "Recent request traces retained for GET /debug/trace (0 \
             disables retention).")
  in
  let session_ttl_arg =
    Arg.(
      value & opt float 300.0
      & info [ "session-ttl" ] ~docv:"SECONDS"
          ~doc:
            "Idle lifetime of an incremental session (POST /session); \
             accesses slide the window.")
  in
  let session_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "session-cap" ] ~docv:"N"
          ~doc:
            "Max live incremental sessions (least-recently-used beyond; 0 \
             disables session storage).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Warm-start store directory: the answer caches are reloaded \
             from the snapshot in $(docv) at boot, so a restart answers \
             repeated queries from its first request, and written back \
             periodically and on graceful shutdown. A damaged snapshot, or \
             one spilled under other packs, is refused whole and the server \
             boots cold; it is never served.")
  in
  let store_interval_arg =
    Arg.(
      value & opt float 60.0
      & info [ "store-interval" ] ~docv:"SECONDS"
          ~doc:
            "Seconds between periodic spills to --store (0 spills only on \
             shutdown).")
  in
  let shards_arg =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run $(docv) worker processes behind a router instead of one \
             in-process server: the router places each query on a worker by \
             a hash of its text, proxies over Unix sockets, health-checks and \
             respawns workers, fans POST /reload \
             out, merges GET /metrics and reports the topology in GET \
             /version. With --store each worker gets its own shard-N \
             subdirectory. 0 = single-process serving.")
  in
  let unix_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix-socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of TCP \
             (--addr/--port are ignored). This is how the --shards router \
             runs its workers; it is also usable directly behind any local \
             reverse proxy.")
  in
  let run port addr workers queue cache_size timeout trace_buffer packs
      session_ttl session_cap store store_interval shards unix_socket =
    if shards > 0 then begin
      (* router mode: the workers re-run this same binary with
         --unix-socket; every per-worker knob the user set travels to
         them on their command line *)
      let worker_args =
        (if workers > 0 then [ "--workers"; string_of_int workers ] else [])
        @ [
            "--queue";
            string_of_int queue;
            "--cache-size";
            string_of_int cache_size;
            "--timeout";
            Printf.sprintf "%g" timeout;
            "--trace-buffer";
            string_of_int trace_buffer;
            "--session-ttl";
            Printf.sprintf "%g" session_ttl;
            "--session-cap";
            string_of_int session_cap;
          ]
        @ (match packs with Some d -> [ "--packs"; d ] | None -> [])
        (* the router adds each worker's own --store *)
        @ (match store with
          | Some _ -> [ "--store-interval"; Printf.sprintf "%g" store_interval ]
          | None -> [])
      in
      Dggt_shard.Router.run
        {
          Dggt_shard.Router.addr;
          port;
          shards;
          exe = Sys.executable_name;
          worker_args;
          store_dir = store;
          proxy_timeout_s = Float.max 30.0 (timeout *. 2.0);
        };
      `Ok ()
    end
    else begin
      Serve.run
        {
          Serve.addr;
          port;
          unix_socket;
          workers;
          queue_capacity = queue;
          cache_size;
          default_timeout_s = timeout;
          trace_buffer;
          packs_dir = packs;
          session_ttl_s = session_ttl;
          session_cap;
          store_dir = store;
          store_interval_s = store_interval;
        };
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent HTTP synthesis service (POST /synthesize, POST \
          /rank, POST /reload, POST /session, POST /session/ID/query, \
          DELETE /session/ID, GET /domains, GET /version, GET /metrics, \
          GET /healthz, GET /debug/trace). With --shards N, run N worker \
          processes behind a router on the same endpoints.")
    Term.(
      ret
        (const run $ port_arg $ addr_arg $ workers_arg $ queue_arg
       $ cache_arg $ serve_timeout_arg $ trace_buffer_arg $ packs_arg
       $ session_ttl_arg $ session_cap_arg $ store_arg $ store_interval_arg
       $ shards_arg $ unix_socket_arg))

(* --- pack ---------------------------------------------------------- *)

let pack_check_cmd =
  let dirs_arg =
    Arg.(
      non_empty & pos_all dir []
      & info [] ~docv:"PACKDIR" ~doc:"Domain pack directories to validate.")
  in
  let run dirs =
    let failed = ref false in
    let problem fmt =
      Printf.ksprintf
        (fun msg ->
          failed := true;
          Printf.eprintf "%s\n" msg)
        fmt
    in
    List.iter
      (fun dir ->
        match Dggt_pack.Loader.load dir with
        | Error e -> problem "%s" (Dggt_domains.Err.to_string e)
        | Ok loaded -> (
            match Dggt_pack.Check.run loaded with
            | [] ->
                let d = loaded.Dggt_pack.Loader.domain in
                let a = Lazy.force d.Domain.autom in
                Printf.printf
                  "%s: ok — %s (%d APIs, %d queries; automaton %s, %.1f ms)\n"
                  dir d.Domain.name (Domain.api_count d)
                  (Domain.query_count d)
                  (String.sub (Dggt_autom.Autom.digest a) 0 12)
                  (Dggt_autom.Autom.compile_time_s a *. 1000.)
            | errs ->
                List.iter
                  (fun e -> problem "%s" (Dggt_domains.Err.to_string e))
                  errs))
      dirs;
    if !failed then `Error (false, "pack check failed") else `Ok ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate domain packs: load each directory, then check that every \
          documented API is reachable in the grammar graph, every \
          ground-truth codelet parses and uses documented APIs, and the \
          search limits are sane. Prints file:line for every problem.")
    Term.(ret (const run $ dirs_arg))

let pack_dump_cmd =
  let outdir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OUTDIR" ~doc:"Directory to write the pack into.")
  in
  let run dname packs outdir =
    match registry_of packs with
    | Error msg -> `Error (false, msg)
    | Ok reg -> (
        match Registry.find_entry reg dname with
        | None -> (
            match resolve_domain reg dname with
            | Error msg -> `Error (false, msg)
            | Ok _ -> assert false)
        | Some e ->
            Dggt_pack.Dump.dump ~dir:outdir ~aliases:e.Registry.aliases
              e.Registry.domain;
            Printf.printf "wrote %s (%s)\n" outdir
              e.Registry.domain.Domain.name;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Export a domain as an on-disk pack (domain.pack, grammar.bnf, \
          api.doc, queries.tsv). Loading the result back synthesizes \
          byte-identically to the original.")
    Term.(ret (const run $ domain_arg $ packs_arg $ outdir_arg))

let pack_cmd =
  Cmd.group
    (Cmd.info "pack"
       ~doc:"Validate (check) and export (dump) on-disk domain packs.")
    [ pack_check_cmd; pack_dump_cmd ]

(* --- store --------------------------------------------------------- *)

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"STOREDIR"
        ~doc:"Warm-start store directory (as given to dggt serve --store).")

let store_verify_cmd =
  let module W = Dggt_server.Warmstore in
  let run dir =
    match W.inspect dir with
    | Error why ->
        `Error
          ( false,
            Printf.sprintf "%s: damaged snapshot (%s); a boot starts cold" dir
              why )
    | Ok None ->
        Printf.printf "%s: no snapshot (a boot starts cold)\n" dir;
        `Ok ()
    | Ok (Some s) ->
        Printf.printf "%s: %d bytes, schema %d%s, pack digest %s\n" dir
          s.W.bytes s.W.schema
          (if s.W.schema = W.schema_version then ""
           else
             Printf.sprintf " (this build reads %d: a boot skips it)"
               W.schema_version)
          s.W.pack_digest;
        List.iter
          (fun (name, n) -> Printf.printf "  %-10s %d entries\n" name n)
          s.W.entries;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a warm-start store's snapshot (header, length and payload \
          digest) and print its size, schema, pack digest and entries per \
          cache. Exits non-zero when the snapshot is damaged: a server boot \
          would refuse it and start cold, never serve it.")
    Term.(ret (const run $ store_dir_arg))

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Check (verify) a warm-start store directory (dggt serve --store).")
    [ store_verify_cmd ]

let () =
  let info =
    Cmd.info "dggt" ~version:"1.0.0"
      ~doc:"Near real-time NLU-driven natural-language programming (DGGT)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synth_cmd;
            explain_cmd;
            repl_cmd;
            eval_cmd;
            autom_cmd;
            serve_cmd;
            pack_cmd;
            store_cmd;
          ]))
