(* One slot = one child process + its lifecycle bookkeeping. All slot
   mutation happens under [mu]; the monitor thread is the only writer
   besides [stop], request threads only snapshot. *)

type state = Starting | Healthy | Backoff | Stopped

type worker = {
  slot : int;
  pid : int;
  epoch : int;
  state : state;
  respawns : int;
  hb_failures : int;
  socket : string;
}

(* heartbeat period and per-heartbeat socket timeout *)
let hb_interval_s = 0.5
let hb_timeout_s = 2.0

(* consecutive failed heartbeats before a Healthy worker is killed and
   respawned *)
let hb_tolerance = 3

(* respawn delay: doubles per consecutive death, from the base up to the
   cap, and starts over once a respawned worker is Healthy *)
let backoff_base_s = 0.1
let backoff_cap_s = 5.0

(* the mutable slot record behind the public snapshot *)
type slot_st = {
  s_slot : int;
  s_socket : string;
  mutable s_pid : int; (* -1 while down *)
  mutable s_epoch : int;
  mutable s_state : state;
  mutable s_respawns : int; (* spawns - 1: the first spawn is free *)
  mutable s_hb_failures : int; (* cumulative *)
  mutable s_hb_streak : int; (* consecutive, resets on success *)
  mutable s_deaths : int; (* consecutive, resets on Healthy; drives backoff *)
  mutable s_next_spawn : float; (* earliest respawn time while Backoff *)
  mutable s_last_hb : float;
}

type t = {
  argv : slot:int -> socket:string -> string array;
  dir : string; (* the sockets' directory, made by [start] *)
  mu : Mutex.t;
  slots : slot_st array;
  mutable closing : bool;
  mutable monitor : Thread.t option;
  mutable nudged : bool; (* a transport failure asked for an early heartbeat *)
}

let snapshot_slot s =
  {
    slot = s.s_slot;
    pid = s.s_pid;
    epoch = s.s_epoch;
    state = s.s_state;
    respawns = s.s_respawns;
    hb_failures = s.s_hb_failures;
    socket = s.s_socket;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let workers t =
  locked t (fun () -> Array.to_list (Array.map snapshot_slot t.slots))

let find t slot =
  locked t (fun () ->
      if slot >= 0 && slot < Array.length t.slots then
        Some (snapshot_slot t.slots.(slot))
      else None)

(* spawn the slot's child; caller holds the lock. A stale socket from the
   previous incarnation is unlinked here too (the worker also does it),
   so a connect between death and respawn fails fast instead of reaching
   a dead listener's backlog. *)
let spawn_locked t s =
  (try Unix.unlink s.s_socket with Unix.Unix_error _ -> ());
  let argv = t.argv ~slot:s.s_slot ~socket:s.s_socket in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  s.s_pid <- pid;
  s.s_epoch <- s.s_epoch + 1;
  s.s_respawns <- s.s_respawns + 1;
  s.s_state <- Starting;
  s.s_hb_streak <- 0;
  s.s_last_hb <- 0.0

let backoff_delay deaths =
  Float.min backoff_cap_s
    (backoff_base_s *. (2.0 ** float_of_int (max 0 (deaths - 1))))

(* the slot's child died (reaped or killed); schedule the respawn *)
let mark_dead_locked s now =
  s.s_pid <- -1;
  s.s_deaths <- s.s_deaths + 1;
  s.s_state <- Backoff;
  s.s_next_spawn <- now +. backoff_delay s.s_deaths

let kill_quietly pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* reap exactly this child, non-blocking; true when it exited. Never
   waits on -1: other subsystems (git_describe, tests) have children of
   their own and their statuses are not ours to take. *)
let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let heartbeat s =
  match
    Proxy.request ~socket:s.s_socket ~timeout_s:hb_timeout_s
      ~meth:"GET" ~path:"/version" ()
  with
  | Ok resp ->
      ignore (Proxy.fixed_body resp);
      resp.Proxy.status = 200
  | Error _ -> false

let monitor_tick t =
  let now = Unix.gettimeofday () in
  (* phase 1 (locked): reap deaths, fire due respawns, pick heartbeat
     candidates *)
  let to_heartbeat =
    locked t (fun () ->
        if t.closing then []
        else begin
          Array.iter
            (fun s ->
              match s.s_state with
              | Stopped -> ()
              | Backoff -> if now >= s.s_next_spawn then spawn_locked t s
              | Starting | Healthy ->
                  if s.s_pid >= 0 && reaped s.s_pid then
                    mark_dead_locked s now)
            t.slots;
          let nudged = t.nudged in
          t.nudged <- false;
          Array.to_list t.slots
          |> List.filter_map (fun s ->
                 match s.s_state with
                 | (Starting | Healthy)
                   when nudged || now -. s.s_last_hb >= hb_interval_s
                   ->
                     s.s_last_hb <- now;
                     Some s
                 | _ -> None)
        end)
  in
  (* phase 2 (unlocked): heartbeats are blocking socket I/O *)
  List.iter
    (fun s ->
      let ok = heartbeat s in
      locked t (fun () ->
          if (not t.closing) && s.s_state <> Stopped && s.s_pid >= 0 then
            if ok then begin
              s.s_state <- Healthy;
              s.s_hb_streak <- 0;
              (* a full successful heartbeat means the respawn took: the
                 next death starts the backoff ladder over *)
              s.s_deaths <- 0
            end
            else begin
              s.s_hb_failures <- s.s_hb_failures + 1;
              s.s_hb_streak <- s.s_hb_streak + 1;
              (* a Starting worker is still booting (automaton compiles,
                 store replay): only waitpid liveness applies to it *)
              if s.s_state = Healthy && s.s_hb_streak >= hb_tolerance
              then begin
                kill_quietly s.s_pid Sys.sigkill;
                ignore (Unix.waitpid [] s.s_pid);
                mark_dead_locked s (Unix.gettimeofday ())
              end
            end))
    to_heartbeat

let monitor_loop t =
  let rec go () =
    if not (locked t (fun () -> t.closing)) then begin
      monitor_tick t;
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let dir_counter = Atomic.make 0

let start ~shards ~argv =
  if shards <= 0 then invalid_arg "Supervisor.start: shards must be > 0";
  (* socket paths must stay under the 108-byte sun_path limit, so the
     directory name is kept short *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt-sh-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add dir_counter 1))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let slots =
    Array.init shards (fun i ->
        {
          s_slot = i;
          s_socket = Filename.concat dir (Printf.sprintf "w%d.sock" i);
          s_pid = -1;
          s_epoch = 0;
          s_state = Backoff;
          s_respawns = -1;
          s_hb_failures = 0;
          s_hb_streak = 0;
          s_deaths = 0;
          s_next_spawn = 0.0;
          s_last_hb = 0.0;
        })
  in
  let t =
    {
      argv;
      dir;
      mu = Mutex.create ();
      slots;
      closing = false;
      monitor = None;
      nudged = false;
    }
  in
  locked t (fun () -> Array.iter (fun s -> spawn_locked t s) t.slots);
  t.monitor <- Some (Thread.create monitor_loop t);
  t

let await_healthy t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let state () =
    locked t (fun () ->
        (t.closing, Array.for_all (fun s -> s.s_state = Healthy) t.slots))
  in
  let rec go () =
    match state () with
    | true, _ -> false
    | false, true -> true
    | false, false ->
        if Unix.gettimeofday () >= deadline then false
        else begin
          Thread.delay 0.02;
          go ()
        end
  in
  go ()

let note_transport_failure t slot =
  locked t (fun () ->
      if slot >= 0 && slot < Array.length t.slots then t.nudged <- true)

let stop ?(grace_s = 5.0) t =
  let join_monitor =
    locked t (fun () ->
        if t.closing then None
        else begin
          t.closing <- true;
          t.monitor
        end)
  in
  match join_monitor with
  | None -> ()
  | Some th ->
      (try Thread.join th with _ -> ());
      let live =
        locked t (fun () ->
            Array.to_list t.slots
            |> List.filter_map (fun s ->
                   let pid = s.s_pid in
                   s.s_state <- Stopped;
                   if pid >= 0 then Some pid else None))
      in
      List.iter (fun pid -> kill_quietly pid Sys.sigterm) live;
      let deadline = Unix.gettimeofday () +. grace_s in
      let rec drain pending =
        if pending = [] then ()
        else if Unix.gettimeofday () >= deadline then
          (* stragglers: SIGKILL and reap for certain *)
          List.iter
            (fun pid ->
              kill_quietly pid Sys.sigkill;
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            pending
        else begin
          let still = List.filter (fun pid -> not (reaped pid)) pending in
          if still <> [] then Thread.delay 0.02;
          drain still
        end
      in
      drain live;
      locked t (fun () ->
          Array.iter
            (fun s ->
              s.s_pid <- -1;
              try Unix.unlink s.s_socket with Unix.Unix_error _ -> ())
            t.slots;
          try Unix.rmdir t.dir with Unix.Unix_error _ -> ())
