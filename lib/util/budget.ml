type t = {
  deadline : float option; (* absolute, Unix time *)
  max_steps : int option;
  mutable steps : int;
  mutable dead : bool;
}

exception Exhausted

let now () = Unix.gettimeofday ()

let make deadline max_steps =
  { deadline; max_steps; steps = 0; dead = false }

let unlimited () = make None None
let of_seconds s = make (Some (now () +. s)) None
let of_steps n = make None (Some n)
let of_seconds_and_steps s n = make (Some (now () +. s)) (Some n)

(* [n] units of work at once. The count stops on the step that runs out:
   the first past [max_steps], or the first multiple of 256 at which the
   clock reads past the deadline. The clock is only sampled at those
   multiples: gettimeofday costs more than the merge steps it guards. *)
let spend t n =
  if n > 0 then begin
    if t.dead then begin
      t.steps <- t.steps + 1;
      raise Exhausted
    end;
    let stop =
      match t.max_steps with
      | Some m when t.steps + n > m -> max (t.steps + 1) (m + 1)
      | _ -> t.steps + n
    in
    let out = match t.max_steps with Some m -> stop > m | None -> false in
    (match t.deadline with
    | Some d ->
        (* the step past [max_steps] raises before the clock is read *)
        let last = if out then stop - 1 else stop in
        let k = ref ((t.steps lor 255) + 1) in
        while !k <= last do
          if now () > d then begin
            t.steps <- !k;
            t.dead <- true;
            raise Exhausted
          end;
          k := !k + 256
        done
    | None -> ());
    t.steps <- stop;
    if out then begin
      t.dead <- true;
      raise Exhausted
    end
  end

let check t = spend t 1

let exhausted t =
  t.dead
  || (match t.max_steps with Some m -> t.steps > m | None -> false)
  || (match t.deadline with Some d -> now () > d | None -> false)

let steps_used t = t.steps
