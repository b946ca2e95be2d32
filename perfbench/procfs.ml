(* Readers for /proc/<pid>/stat and /proc/<pid>/status: the CPU time and
   peak resident set of the server processes under test. *)

(* Linux reports utime/stime in USER_HZ ticks, which the kernel fixes at
   100 per second for every userspace-visible interface. *)
let ms_per_tick = 10.0

(* utime + stime (fields 14 and 15 of stat(5)). The comm field (2) is in
   parentheses and may itself contain spaces and parentheses, so fields
   are counted from the last ')'. *)
let cpu_ticks_of_stat s =
  match String.rindex_opt s ')' with
  | None -> Error "no ')' in stat line"
  | Some i -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let fields =
        String.split_on_char ' ' (String.trim rest)
        |> List.filter (fun f -> f <> "")
      in
      (* rest starts at field 3 (state): utime is field 14, stime 15 *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some st -> (
          match (int_of_string_opt u, int_of_string_opt st) with
          | Some u, Some st -> Ok (u + st)
          | _ -> Error "non-numeric utime/stime")
      | _ -> Error "stat line too short")

(* a "Key:   1234 kB" line of /proc/<pid>/status, in kB *)
let kb_of_status ~key s =
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key -> (
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             match
               String.split_on_char ' ' (String.trim v)
               |> List.filter (fun f -> f <> "")
             with
             | n :: _ -> int_of_string_opt n
             | [] -> None)
         | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* /proc files report size 0: read until EOF *)
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let cpu_ms pid =
  match cpu_ticks_of_stat (read_file (Printf.sprintf "/proc/%d/stat" pid)) with
  | Ok t -> float_of_int t *. ms_per_tick
  | Error m -> failwith (Printf.sprintf "/proc/%d/stat: %s" pid m)

let hwm_mb pid =
  match
    kb_of_status ~key:"VmHWM"
      (read_file (Printf.sprintf "/proc/%d/status" pid))
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith (Printf.sprintf "/proc/%d/status: no VmHWM" pid)

let alive pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | s -> (
      (* a zombie has exited; only its parent's wait is outstanding *)
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] <> 'Z'
      | _ -> true)
  | exception Sys_error _ -> false
