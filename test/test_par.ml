(* Tests for dggt_par: the pool's ordering/exception/nesting contracts,
   shutdown and capacity semantics, byte-for-byte equivalence of a
   pooled whole-query batch run against a sequential one, and races on
   the shared state the fan-out exposes (the grammar distance memo, the
   server's LRU cache, the deadline pool). Since the intra-query
   EdgeToPath fan-out was retired, the pool's only engine-facing role is
   batch throughput: whole queries over worker domains. *)

module Pool = Dggt_par.Pool
module Engine = Dggt_core.Engine
module Runner = Dggt_eval.Runner
module Domain = Dggt_domains.Domain
module Ggraph = Dggt_grammar.Ggraph

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let with_pool ?(workers = 4) f =
  let pool = Pool.create ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* map_ordered                                                        *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  with_pool (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "squares in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map_ordered pool (fun x -> x * x) xs))

let test_map_empty () =
  with_pool (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map_ordered pool Fun.id []))

let test_map_exception () =
  with_pool (fun pool ->
      (* two inputs fail; the batch settles and the earliest input's
         exception is the one re-raised *)
      match
        Pool.map_ordered pool
          (fun x -> if x mod 10 = 3 then failwith (string_of_int x) else x)
          (List.init 40 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          Alcotest.(check string) "earliest failing input" "3" msg)

let test_map_nested () =
  (* a mapped task may itself map on the same pool: the claim-based
     batches mean every caller helps drain its own work, so two workers
     can't deadlock waiting on each other *)
  with_pool ~workers:2 (fun pool ->
      let inner x = Pool.map_ordered pool (fun y -> x + y) [ 1; 2; 3 ] in
      Alcotest.(check (list (list int)))
        "nested maps"
        [ [ 1; 2; 3 ]; [ 11; 12; 13 ] ]
        (Pool.map_ordered pool inner [ 0; 10 ]))

let test_map_after_shutdown () =
  (* the caller participates, so a map on a stopped pool still completes
     (sequentially) instead of hanging *)
  let pool = Pool.create ~workers:2 () in
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "map on stopped pool" [ 2; 4; 6 ]
    (Pool.map_ordered pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_map_large () =
  with_pool (fun pool ->
      let n = 1000 in
      let r = Pool.map_ordered pool (fun x -> x + 1) (List.init n Fun.id) in
      check_i "count" n (List.length r);
      check_i "sum" (n * (n + 1) / 2) (List.fold_left ( + ) 0 r))

(* ------------------------------------------------------------------ *)
(* submit / shutdown                                                  *)
(* ------------------------------------------------------------------ *)

let test_submit_capacity () =
  let pool = Pool.create ~workers:1 ~capacity:1 () in
  let entered = Atomic.make false and release = Atomic.make false in
  let block () =
    Atomic.set entered true;
    while not (Atomic.get release) do
      Thread.yield ()
    done
  in
  check_b "blocker accepted" true (Pool.submit pool block = `Accepted);
  while not (Atomic.get entered) do
    Thread.yield ()
  done;
  (* worker busy, queue holds exactly [capacity] bounded jobs *)
  check_b "1st queued" true (Pool.submit pool ignore = `Accepted);
  check_b "2nd rejected" true (Pool.submit pool ignore = `Rejected);
  check_i "depth" 1 (Pool.depth pool);
  Atomic.set release true;
  Pool.shutdown pool;
  check_b "post-shutdown rejected" true (Pool.submit pool ignore = `Rejected)

let threads () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.starts_with ~prefix:"Threads:" l then
          int_of_string (String.trim (String.sub l 8 (String.length l - 8)))
        else find ()
      in
      find ())

(* the thread count once threads that are exiting have gone: two reads
   10 ms apart agree *)
let settled_threads () =
  let rec quiet prev n =
    Unix.sleepf 0.01;
    let k = threads () in
    if k = prev || n = 0 then k else quiet k (n - 1)
  in
  quiet (threads ()) 200

(* A worker domain exists only once a job needed one: none at creation,
   one for a job, a second only while the first is busy, and none after
   shutdown. Thread counts stand in for domains (each domain brings the
   same number of OS threads; a joined one may take a moment to go). *)
let test_spawn_on_demand () =
  (* the process's first spawn also starts a helper thread of the main
     domain; take it out of the count *)
  Stdlib.Domain.join (Stdlib.Domain.spawn ignore);
  let pool = Pool.create ~workers:4 () in
  let base = settled_threads () in
  check_i "no worker before a job" base (threads ());
  let entered = Atomic.make 0 and release = Atomic.make false in
  (* spins without [Thread.yield], which would start a tick thread in
     the worker's domain *)
  let block () =
    Atomic.incr entered;
    while not (Atomic.get release) do
      Stdlib.Domain.cpu_relax ()
    done
  in
  ignore (Pool.submit pool block);
  while Atomic.get entered < 1 do
    Thread.yield ()
  done;
  let per_domain = threads () - base in
  check_b "one worker for one job" true (per_domain > 0);
  ignore (Pool.submit pool block);
  while Atomic.get entered < 2 do
    Thread.yield ()
  done;
  check_i "a second worker while the first is busy" (base + (2 * per_domain))
    (threads ());
  Atomic.set release true;
  Pool.shutdown pool;
  let rec settle n =
    if threads () > base && n > 0 then begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
  in
  settle 200;
  check_i "none after shutdown" base (threads ())

(* ------------------------------------------------------------------ *)
(* trim: idle workers retire, the next job respawns                   *)
(* ------------------------------------------------------------------ *)

(* submit [f] and wait until it has returned *)
let run_job pool f =
  let finished = Atomic.make false in
  check_b "job accepted" true
    (Pool.submit pool (fun () ->
         f ();
         Atomic.set finished true)
    = `Accepted);
  while not (Atomic.get finished) do
    Thread.yield ()
  done

(* trim until [live] workers are left: a worker whose job just returned
   retires only once it is back waiting for the next *)
let trim_to pool live =
  let rec go n =
    Pool.trim pool;
    if (Pool.stats pool).Pool.live > live && n > 0 then begin
      Unix.sleepf 0.001;
      go (n - 1)
    end
  in
  go 2000;
  check_i "live workers after trimming" live (Pool.stats pool).Pool.live

let test_trim_retires_idle () =
  Stdlib.Domain.join (Stdlib.Domain.spawn ignore);
  let pool = Pool.create ~workers:2 () in
  let base = settled_threads () in
  run_job pool ignore;
  let per_domain = threads () - base in
  check_b "one worker for the job" true (per_domain > 0);
  Pool.trim pool;
  check_i "a new worker survives its first trim" 1 (Pool.stats pool).Pool.live;
  run_job pool ignore;
  Pool.trim pool;
  check_i "a worker that ran a job since the last trim is spared" 1
    (Pool.stats pool).Pool.live;
  trim_to pool 0;
  check_i "retired and joined" base (settled_threads ());
  run_job pool ignore;
  let s = Pool.stats pool in
  check_i "the next job respawns" 2 s.Pool.spawned;
  check_i "one retirement" 1 s.Pool.retired;
  check_i "one live worker" (base + per_domain) (threads ());
  (* a worker in the middle of a job is never retired, however long *)
  let entered = Atomic.make false and release = Atomic.make false in
  ignore
    (Pool.submit pool (fun () ->
         Atomic.set entered true;
         while not (Atomic.get release) do
           Stdlib.Domain.cpu_relax ()
         done));
  while not (Atomic.get entered) do
    Thread.yield ()
  done;
  for _ = 1 to 5 do
    Pool.trim pool
  done;
  check_i "the busy worker is spared" 1 (Pool.stats pool).Pool.live;
  Atomic.set release true;
  trim_to pool 0;
  Pool.shutdown pool;
  check_i "none after shutdown" base (settled_threads ())

let test_trim_then_map_and_shutdown () =
  let pool = Pool.create ~workers:4 () in
  let xs = List.init 200 Fun.id in
  let squares = List.map (fun x -> x * x) xs in
  for _ = 1 to 3 do
    Alcotest.(check (list int))
      "map after retirements" squares
      (Pool.map_ordered pool (fun x -> x * x) xs);
    trim_to pool 0
  done;
  check_b "workers were retired" true ((Pool.stats pool).Pool.retired > 0);
  run_job pool ignore;
  Pool.shutdown pool;
  check_i "shutdown leaves none live" 0 (Pool.stats pool).Pool.live;
  check_b "rejects after shutdown" true (Pool.submit pool ignore = `Rejected)

(* a trimmer thread trims without pause while jobs arrive one to three
   at a time, each batch awaited: every worker is idle, and may be
   retiring, when the next batch lands. A lost job shows as a batch that
   never finishes. *)
let test_trim_races_submit () =
  let pool = Pool.create ~workers:2 ~capacity:1024 () in
  let stop = Atomic.make false in
  let trimmer =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Pool.trim pool;
          Thread.yield ()
        done)
      ()
  in
  let ran = Atomic.make 0 and submitted = ref 0 in
  for round = 1 to 300 do
    for _ = 0 to round mod 3 do
      check_b "accepted" true (Pool.submit pool (fun () -> Atomic.incr ran) = `Accepted);
      incr submitted
    done;
    let t0 = Unix.gettimeofday () in
    while Atomic.get ran < !submitted && Unix.gettimeofday () -. t0 < 10.0 do
      Thread.yield ()
    done;
    check_i "every submitted job ran" !submitted (Atomic.get ran)
  done;
  Atomic.set stop true;
  Thread.join trimmer;
  check_b "workers retired while jobs arrived" true
    ((Pool.stats pool).Pool.retired > 0);
  Pool.shutdown pool

let test_trim_cycles () =
  Stdlib.Domain.join (Stdlib.Domain.spawn ignore);
  let pool = Pool.create ~workers:1 () in
  let base = settled_threads () in
  for _ = 1 to 200 do
    run_job pool ignore;
    trim_to pool 0
  done;
  let s = Pool.stats pool in
  check_i "200 spawns" 200 s.Pool.spawned;
  check_i "200 retirements" 200 s.Pool.retired;
  check_i "threads back at base" base (settled_threads ());
  Pool.shutdown pool

let test_shutdown_idempotent () =
  let pool = Pool.create ~workers:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_b "still rejects" true (Pool.submit pool ignore = `Rejected)

let test_shutdown_under_load () =
  (* shut the pool down while a thread is still feeding it: accepted jobs
     all run (the queue drains before the workers exit), later submits
     bounce, nothing crashes or hangs *)
  let pool = Pool.create ~workers:4 ~capacity:1024 () in
  let accepted = Atomic.make 0 and ran = Atomic.make 0 in
  let feeder =
    Thread.create
      (fun () ->
        for _ = 1 to 500 do
          match Pool.submit pool (fun () -> Atomic.incr ran) with
          | `Accepted -> Atomic.incr accepted
          | `Rejected -> ()
        done)
      ()
  in
  Thread.yield ();
  Pool.shutdown pool;
  Thread.join feeder;
  check_i "every accepted job ran" (Atomic.get accepted) (Atomic.get ran)

(* ------------------------------------------------------------------ *)
(* batch run: pooled = sequential                                     *)
(* ------------------------------------------------------------------ *)

(* Runner.run_domain ?pool fans whole queries out over worker domains;
   results must come back in query order with every observable outcome
   field identical to a sequential run. A step budget instead of a wall
   clock keeps both runs deterministic (steps don't depend on
   scheduling); a truncated query set keeps the test quick. *)
let truncate n (dom : Domain.t) =
  { dom with Domain.queries = List.filteri (fun i _ -> i < n) dom.Domain.queries }

let runner_equiv algorithm (dom : Domain.t) () =
  let dom = truncate 8 dom in
  let tweak c =
    { c with Engine.timeout_s = None; max_steps = Some 100_000 }
  in
  let seq = Runner.run_domain ~tweak dom algorithm in
  let par =
    with_pool (fun pool -> Runner.run_domain ~tweak ~pool dom algorithm)
  in
  check_i "result count"
    (List.length seq.Runner.results)
    (List.length par.Runner.results);
  List.iter2
    (fun (s : Runner.qresult) (p : Runner.qresult) ->
      let q = s.Runner.query.Domain.text in
      Alcotest.(check string)
        (q ^ ": query order") q p.Runner.query.Domain.text;
      Alcotest.(check (option string))
        (q ^ ": code") s.Runner.outcome.Engine.code p.Runner.outcome.Engine.code;
      Alcotest.(check (option int))
        (q ^ ": cgt_size") s.Runner.outcome.Engine.cgt_size
        p.Runner.outcome.Engine.cgt_size;
      check_b (q ^ ": timed_out") s.Runner.outcome.Engine.timed_out
        p.Runner.outcome.Engine.timed_out;
      Alcotest.(check (option string))
        (q ^ ": failure") s.Runner.outcome.Engine.failure
        p.Runner.outcome.Engine.failure;
      check_b (q ^ ": stats") true
        (s.Runner.outcome.Engine.stats = p.Runner.outcome.Engine.stats);
      check_b (q ^ ": correct") s.Runner.correct p.Runner.correct)
    seq.Runner.results par.Runner.results

let test_runner_progress_counts () =
  (* under a pool, progress reports completion counts: each callback sees
     the number of finished queries, ending exactly at n *)
  let dom = truncate 6 Dggt_domains.Text_editing.domain in
  let seen = Mutex.create () and counts = ref [] in
  let progress i n =
    Mutex.lock seen;
    counts := (i, n) :: !counts;
    Mutex.unlock seen
  in
  let _run =
    with_pool (fun pool ->
        Runner.run_domain
          ~tweak:(fun c ->
            { c with Engine.timeout_s = None; max_steps = Some 10_000 })
          ~progress ~pool dom Engine.Dggt_alg)
  in
  let counts = List.sort compare !counts in
  check_i "one callback per query" 6 (List.length counts);
  List.iteri
    (fun i (got, n) ->
      check_i "monotone completion count" (i + 1) got;
      check_i "total" 6 n)
    counts

(* ------------------------------------------------------------------ *)
(* shared state under real parallelism                                *)
(* ------------------------------------------------------------------ *)

let test_distance_memo_race () =
  (* the per-source BFS rows are memoized under a mutex; hammer the memo
     from every worker at once and compare against a sequentially-filled
     twin graph *)
  let start =
    (Lazy.force Dggt_domains.Text_editing.domain.Dggt_domains.Domain.graph)
      .Ggraph.cfg.Dggt_grammar.Cfg.start
  in
  let build () =
    match Dggt_grammar.Cfg.of_text ~start Dggt_domains.Te_pack.grammar_bnf with
    | Ok cfg -> Ggraph.build cfg
    | Error _ -> Alcotest.fail "grammar build failed"
  in
  let g_par = build () and g_seq = build () in
  let srcs = List.init (Ggraph.node_count g_par) Fun.id in
  (* ask for each row several times so hits race the misses *)
  let queries = srcs @ srcs @ srcs in
  with_pool (fun pool ->
      let rows =
        Pool.map_ordered pool
          (fun src -> Array.copy (Ggraph.dist_from g_par src))
          queries
      in
      List.iter2
        (fun src row ->
          check_b
            (Printf.sprintf "row %d identical" src)
            true
            (row = Ggraph.dist_from g_seq src))
        queries rows)

let test_cache_race () =
  (* Cache.find_or_compute computes outside the lock: racing misses on the
     same key may both compute, but every caller must still get the
     deterministic value and the entry must land exactly once *)
  let cache = Dggt_server.Cache.create ~capacity:64 in
  with_pool (fun pool ->
      let results =
        Pool.map_ordered pool
          (fun i ->
            let k = i mod 20 in
            fst
              (Dggt_server.Cache.find_or_compute cache k (fun () ->
                   Printf.sprintf "v%d" k)))
          (List.init 200 Fun.id)
      in
      List.iteri
        (fun i v ->
          Alcotest.(check string)
            (Printf.sprintf "key %d" (i mod 20))
            (Printf.sprintf "v%d" (i mod 20))
            v)
        results);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "cached value" (Some (Printf.sprintf "v%d" k))
        (Dggt_server.Cache.find cache k))
    (List.init 20 Fun.id)

let test_deadline_expiry_many_workers () =
  (* all four workers blocked, a batch of already-expired jobs behind
     them: every one must take the expired path, none may run *)
  let pool = Dggt_server.Deadline_pool.create ~workers:4 ~capacity:32 () in
  let entered = Atomic.make 0 and release = Atomic.make false in
  let ran = Atomic.make 0 and expired = Atomic.make 0 in
  let block () =
    Atomic.incr entered;
    while not (Atomic.get release) do
      Thread.yield ()
    done
  in
  for _ = 1 to 4 do
    check_b "blocker accepted" true
      (Dggt_server.Deadline_pool.submit pool ~run:block ~expired:ignore () = `Accepted)
  done;
  while Atomic.get entered < 4 do
    Thread.yield ()
  done;
  let past = Unix.gettimeofday () -. 1.0 in
  for _ = 1 to 8 do
    check_b "expired job accepted" true
      (Dggt_server.Deadline_pool.submit pool ~deadline:past
         ~run:(fun () -> Atomic.incr ran)
         ~expired:(fun () -> Atomic.incr expired)
         ()
      = `Accepted)
  done;
  Atomic.set release true;
  Dggt_server.Deadline_pool.shutdown pool;
  check_i "all expired" 8 (Atomic.get expired);
  check_i "none ran" 0 (Atomic.get ran)

let suite =
  [
    ("map_ordered: input order", `Quick, test_map_order);
    ("map_ordered: empty input", `Quick, test_map_empty);
    ("map_ordered: earliest exception wins", `Quick, test_map_exception);
    ("map_ordered: nesting does not deadlock", `Quick, test_map_nested);
    ("map_ordered: total on a stopped pool", `Quick, test_map_after_shutdown);
    ("map_ordered: 1000 tasks", `Quick, test_map_large);
    ("submit: capacity bound and rejection", `Quick, test_submit_capacity);
    ("shutdown: idempotent", `Quick, test_shutdown_idempotent);
    ("shutdown: under concurrent submits", `Quick, test_shutdown_under_load);
    ( "runner: pooled batch = seq, DGGT textediting",
      `Quick,
      runner_equiv Engine.Dggt_alg Dggt_domains.Text_editing.domain );
    ( "runner: pooled batch = seq, DGGT astmatcher",
      `Quick,
      runner_equiv Engine.Dggt_alg Dggt_domains.Astmatcher.domain );
    ( "runner: pooled batch = seq, HISyn textediting",
      `Quick,
      runner_equiv Engine.Hisyn_alg Dggt_domains.Text_editing.domain );
    ("runner: pooled progress counts", `Quick, test_runner_progress_counts);
    ("distance memo: races agree with sequential", `Quick, test_distance_memo_race);
    ("cache: racing find_or_compute", `Quick, test_cache_race);
    ( "server pool: deadline expiry with 4 workers",
      `Quick,
      test_deadline_expiry_many_workers );
    ("submit: workers spawn on demand", `Quick, test_spawn_on_demand);
    ("trim: retires idle workers, spares active ones", `Quick, test_trim_retires_idle);
    ("trim: map_ordered and shutdown after retirements", `Quick,
      test_trim_then_map_and_shutdown);
    ("trim: no job lost to a concurrent trim", `Quick, test_trim_races_submit);
    ("trim: 200 retire/respawn cycles leave no thread", `Quick, test_trim_cycles);
  ]
