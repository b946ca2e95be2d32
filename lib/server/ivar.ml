(* A one-shot cell under a mutex and a condition. [await] blocks in
   [Condition.wait], which releases the mutex and, for a systhread, its
   domain's runtime lock, so the other threads of that domain keep
   running while it waits. *)

type 'a t = { mu : Mutex.t; filled : Condition.t; mutable cell : 'a option }

let create () = { mu = Mutex.create (); filled = Condition.create (); cell = None }

let fill t v =
  Mutex.lock t.mu;
  if t.cell = None then begin
    t.cell <- Some v;
    Condition.broadcast t.filled
  end;
  Mutex.unlock t.mu

let peek t =
  Mutex.lock t.mu;
  let c = t.cell in
  Mutex.unlock t.mu;
  c

let await t =
  Mutex.lock t.mu;
  while t.cell = None do
    Condition.wait t.filled t.mu
  done;
  let v = Option.get t.cell in
  Mutex.unlock t.mu;
  v
