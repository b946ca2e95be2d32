(* The server under test, as separate OS processes: [dggt serve] (one
   process) or [dggt serve --shards N] (a router plus N worker processes),
   spawned from the build in the checkout with default settings. The
   benchmark's own threads and GC never share the server's runtime. *)

let now = Unix.gettimeofday

type t = {
  pid : int;              (* the server, or the shard router *)
  port : int;
  shards : int;           (* 0 = single process *)
  spawned_at : float;
  mutable workers : int list;  (* shard worker pids, once known *)
}

let exe () = Filename.concat (Sys.getcwd ()) "_build/default/bin/dggt_cli.exe"

(* an ephemeral loopback port the kernel has just handed out *)
let free_port () =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let live : t list ref = ref []

(* [tmpdir] keeps the router's worker sockets inside the checkout *)
let spawn ~shards ~tmpdir ~log =
  let port = free_port () in
  let exe = exe () in
  let argv =
    [ exe; "serve"; "--port"; string_of_int port ]
    @ if shards > 0 then [ "--shards"; string_of_int shards ] else []
  in
  let env =
    Array.append
      [| "TMPDIR=" ^ tmpdir |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let spawned_at = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process_env exe (Array.of_list argv) env Unix.stdin out out)
  in
  let t = { pid; port; shards; spawned_at; workers = [] } in
  live := t :: !live;
  t

(* worker pids from the router's GET /version topology *)
let discover_workers t =
  if t.shards > 0 then begin
    let r = Client.call_once t.port ~meth:"GET" ~path:"/version" () in
    if r.Client.status <> 200 then failwith "GET /version failed";
    let module J = Dggt_server.Jsonio in
    match J.of_string r.Client.body with
    | Error m -> failwith ("GET /version: " ^ m)
    | Ok v -> (
        match J.member "workers" v with
        | Some (J.Arr ws) ->
            t.workers <- List.filter_map (J.int_field "pid") ws;
            if List.length t.workers <> t.shards then
              failwith "GET /version does not list every worker"
        | _ -> failwith "GET /version: no workers array")
  end

let pids t = t.pid :: t.workers

(* SIGTERM (the server's clean-shutdown path), SIGKILL after a grace
   period, until the process has ended *)
let terminate ~reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let ended () =
    if reap then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    else not (Procfs.alive pid)
  in
  let deadline = now () +. 10.0 in
  while (not (ended ())) && now () < deadline do
    Unix.sleepf 0.01
  done;
  if not (ended ()) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    while not (ended ()) do
      Unix.sleepf 0.01
    done
  end

(* Stop the server and wait until every process of the fleet has ended.
   A router stops its workers on SIGTERM, but it only handles the signal
   once its workers are healthy; workers it leaves behind are stopped
   here (the router is gone by then, so nothing respawns them). *)
let stop t =
  terminate ~reap:true t.pid;
  List.iter (fun w -> if Procfs.alive w then terminate ~reap:false w) t.workers;
  live := List.filter (fun x -> x != t) !live

let stop_all () = List.iter stop !live
