(* Self-tests of the benchmark's own helpers: the tail-percentile rule,
   SSE decoding, ground-truth scoring, the host-speed probe and the /proc
   readers. *)

open Perfbench

(* --- order statistics ---------------------------------------------- *)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Pstats.percentile a 50.0);
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Pstats.percentile a 90.0);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (Pstats.percentile a 100.0);
  Alcotest.(check (float 0.0)) "p0 is the min" 1.0 (Pstats.percentile a 0.0);
  Alcotest.(check (float 0.0)) "median of a list" 2.0 (Pstats.median [ 3.0; 1.0; 2.0 ])

let test_tail_rule () =
  List.iter
    (fun (n, p) ->
      Alcotest.(check int) (Printf.sprintf "tail of %d samples" n) p (Pstats.tail_percentile n))
    [ (50, 80); (100, 90); (1509, 99); (6036, 99); (20, 50); (5, 50) ];
  (* the chosen percentile keeps ten samples beyond it, the next one
     up does not *)
  let sizes = List.init 1980 (fun i -> i + 21) @ [ 4527; 6036; 10009; 10010; 25000 ] in
  List.iter (fun n ->
    let p = Pstats.tail_percentile n in
    let a = Array.init n float_of_int in
    let beyond p =
      let v = Pstats.percentile a (float_of_int p) in
      Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a
    in
    if beyond p < 10 then Alcotest.failf "n=%d: p%d has %d samples beyond" n p (beyond p);
    if p < 99 && beyond (p + 1) >= 10 then
      Alcotest.failf "n=%d: p%d is not the highest such percentile" n p)
    sizes

let test_items () =
  Alcotest.(check (list (float 0.0))) "each item's median, in first-seen order" [ 2.0; 10.0 ]
    (Pstats.item_medians [ ("a", 1.0); ("b", 10.0); ("a", 3.0); ("b", 20.0); ("a", 2.0) ]);
  (* 200 items: the tail is their p95, ten beyond it *)
  Alcotest.(check (float 0.0)) "tail of 200 values" 190.0
    (Pstats.tail (List.init 200 (fun i -> float_of_int (200 - i))));
  Alcotest.(check (float 0.0)) "tail of too few values is the median" 10.0
    (Pstats.tail (List.init 20 (fun i -> float_of_int (i + 1))))

(* --- SSE over chunked transfer ------------------------------------- *)

let frame event data = Printf.sprintf "event: %s\ndata: %s\n\n" event data

let chunk s = Printf.sprintf "%x\r\n%s\r\n" (String.length s) s

let stream_frames =
  [
    frame "candidate" {|{"rank":1,"revision":1,"code":"A()"}|};
    frame "candidate" {|{"rank":1,"revision":2,"code":"B()"}|};
    frame "done" {|{"v":1,"candidates":["B()"]}|};
  ]

let wire = String.concat "" (List.map chunk stream_frames) ^ "0\r\n\r\n"

(* decode [bytes] delivered in the given pieces *)
let decode pieces =
  let d = Sse.dechunk () and f = Sse.frames () in
  let frames = List.concat_map (fun p -> Sse.feed_frames f (Sse.feed_chunked d p)) pieces in
  (frames, Sse.finished d, Sse.leftover f)

let split_at s i = [ String.sub s 0 i; String.sub s i (String.length s - i) ]

let test_sse_split () =
  let whole, fin, left = decode [ wire ] in
  Alcotest.(check int) "three frames" 3 (List.length whole);
  Alcotest.(check bool) "last chunk seen" true fin;
  Alcotest.(check int) "nothing left over" 0 left;
  (* every split point, and one byte at a time *)
  for i = 0 to String.length wire do
    let got, fin, _ = decode (split_at wire i) in
    if got <> whole || not fin then Alcotest.failf "split at byte %d decodes differently" i
  done;
  let bytes = List.init (String.length wire) (fun i -> String.make 1 wire.[i]) in
  let got, _, _ = decode bytes in
  Alcotest.(check bool) "byte-at-a-time" true (got = whole);
  (* a frame split across two chunks, as a proxy may re-chunk *)
  let body = String.concat "" stream_frames in
  let rechunked =
    chunk (String.sub body 0 30)
    ^ chunk (String.sub body 30 (String.length body - 30))
    ^ "0\r\n\r\n"
  in
  let got, _, _ = decode [ rechunked ] in
  Alcotest.(check bool) "re-chunked" true (got = whole);
  match Sse.check_stream whole with
  | Ok (payload, n) ->
      Alcotest.(check int) "candidates" 2 n;
      Alcotest.(check string) "done payload" {|{"v":1,"candidates":["B()"]}|} payload
  | Error m -> Alcotest.fail m

let check_fails name frames =
  match Sse.check_stream frames with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error _ -> ()

let test_sse_protocol () =
  let f event data = { Sse.event; data } in
  let cand r = f "candidate" (Printf.sprintf {|{"revision":%d}|} r) in
  check_fails "missing terminal frame" [ cand 1; cand 2 ];
  check_fails "empty stream" [];
  check_fails "repeated revision" [ cand 1; cand 1; f "done" "{}" ];
  check_fails "decreasing revision" [ cand 2; cand 1; f "done" "{}" ];
  check_fails "error frame" [ cand 1; f "error" {|{"status":504}|} ];
  check_fails "two done frames" [ f "done" "{}"; f "done" "{}" ];
  check_fails "frame after done" [ f "done" "{}"; cand 1 ];
  (* a stream cut before its last chunk *)
  let cut = String.sub wire 0 (String.length wire - 5) in
  let frames, fin, _ = decode [ cut ] in
  Alcotest.(check bool) "cut stream not finished" false fin;
  Alcotest.(check int) "frames before the cut" 3 (List.length frames);
  (match Sse.feed_chunked (Sse.dechunk ()) "zz\r\n" with
  | _ -> Alcotest.fail "bad chunk size accepted"
  | exception Failure _ -> ());
  match Sse.feed_chunked (Sse.dechunk ()) "0\r\n\r\nextra" with
  | _ -> Alcotest.fail "bytes after the last chunk accepted"
  | exception Failure _ -> ()

(* --- ground-truth scoring ------------------------------------------ *)

let test_scoring () =
  let d = Dggt_domains.Text_editing.domain in
  let q =
    {
      Dggt_domains.Domain.id = 3;
      hard = false;
      text = "insert \"> \" at the start of each line";
      expected = {|INSERT(STRING("> "), START(), ITERATIONSCOPE(LINESCOPE(), ALWAYS()))|};
    }
  in
  let check name want code = Alcotest.(check bool) name want (Packs.correct d q code) in
  check "identical" true {|INSERT(STRING("> "), START(), ITERATIONSCOPE(LINESCOPE(), ALWAYS()))|};
  check "nullary parentheses omitted" true
    {|INSERT(STRING("> "), START, ITERATIONSCOPE(LINESCOPE, ALWAYS))|};
  check "argument order matters" false
    {|INSERT(START(), STRING("> "), ITERATIONSCOPE(LINESCOPE(), ALWAYS()))|};
  check "literal matters" false {|INSERT(STRING(">"), START(), ITERATIONSCOPE(LINESCOPE(), ALWAYS()))|};
  check "malformed" false "INSERT(STRING("

(* --- host-speed calibration ---------------------------------------- *)

let test_calib () =
  Alcotest.(check (float 1e-9)) "no drift" 0.0 (Calib.drift [ 8.0; 8.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "largest over smallest" 0.25 (Calib.drift [ 9.0; 10.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "order does not matter" 0.25 (Calib.drift [ 8.0; 9.0; 10.0 ]);
  let p = Calib.probe () in
  if not (p > 0.0 && Float.is_finite p) then Alcotest.failf "probe read %f ms" p

(* --- /proc readers ------------------------------------------------- *)

let test_proc_parsers () =
  (* comm with spaces and a ')' in it; utime 7, stime 5 *)
  let stat =
    "4242 (we ird) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 1 0 1000 1000 100"
  in
  Alcotest.(check (result int string)) "utime+stime" (Ok 12) (Procfs.cpu_ticks_of_stat stat);
  (match Procfs.cpu_ticks_of_stat "4242 (x) S 1 2" with
  | Ok _ -> Alcotest.fail "short stat line accepted"
  | Error _ -> ());
  let status = "Name:\tdggt\nVmPeak:\t  300000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 2048) (Procfs.kb_of_status ~key:"VmHWM" status);
  Alcotest.(check (option int)) "absent key" None (Procfs.kb_of_status ~key:"VmSwap" status)

let test_proc_self () =
  let pid = Unix.getpid () in
  (* spin for 0.3 s of this process's CPU time, as the runtime counts
     it, however busy the host is; /proc counts in 10 ms ticks *)
  let c0 = Procfs.cpu_ms pid and s0 = Sys.time () in
  while Sys.time () -. s0 < 0.3 do
    ignore (Sys.opaque_identity (ref 0))
  done;
  let c1 = Procfs.cpu_ms pid in
  if c1 -. c0 < 250.0 then Alcotest.failf "0.3 s of spinning read as %.0f ms of CPU" (c1 -. c0);
  if Procfs.hwm_mb pid <= 0.0 then Alcotest.fail "no peak RSS";
  Alcotest.(check bool) "self alive" true (Procfs.alive pid);
  let child = Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (Unix.waitpid [] child);
  Alcotest.(check bool) "reaped child gone" false (Procfs.alive child)

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "ten-beyond tail rule" `Quick test_tail_rule;
          Alcotest.test_case "per-item medians and their tail" `Quick test_items;
        ] );
      ( "sse",
        [
          Alcotest.test_case "frames across split chunks" `Quick test_sse_split;
          Alcotest.test_case "protocol violations" `Quick test_sse_protocol;
        ] );
      ("packs", [ Alcotest.test_case "scoring through Tree2expr.parse" `Quick test_scoring ]);
      ("calib", [ Alcotest.test_case "drift and probe" `Quick test_calib ]);
      ( "procfs",
        [
          Alcotest.test_case "stat and status parsing" `Quick test_proc_parsers;
          Alcotest.test_case "readers on this process" `Quick test_proc_self;
        ] );
    ]
