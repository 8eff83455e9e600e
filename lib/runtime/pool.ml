let recommended_jobs () = Domain.recommended_domain_count ()

let effective_jobs ~jobs n =
  let jobs = if jobs <= 0 then recommended_jobs () else jobs in
  max 1 (min jobs n)

(* Persistent pool.  [size - 1] long-lived domains park on [start_cv];
   each {!run} installs a job, bumps the generation to wake them, and the
   caller participates as worker 0.  Workers have stable ids [1 .. size-1]
   for their whole lifetime, so callers can key per-worker scratch state
   (LP sessions, warm bases) off the id. *)
type t = {
  size : int;
  mu : Mutex.t;
  start_cv : Condition.t;
  done_cv : Condition.t;
  mutable job : (int -> unit) option;  (* worker id -> run your share *)
  mutable gen : int;                   (* bumped once per run *)
  mutable pending : int;               (* workers still inside the job *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let worker_loop t wid =
  let my_gen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.mu;
    while (not t.stop) && t.gen = !my_gen do
      Condition.wait t.start_cv t.mu
    done;
    if t.stop then begin
      Mutex.unlock t.mu;
      continue_ := false
    end
    else begin
      my_gen := t.gen;
      let job = Option.get t.job in
      Mutex.unlock t.mu;
      job wid;
      Mutex.lock t.mu;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.mu
    end
  done

(* A spawned domain starts with backtrace recording off, whatever its
   parent's setting; each worker takes the setting of the domain that
   created the pool, so a failure on a worker re-raises with the trace a
   failure on the caller would have. *)
let create ~jobs =
  let size = max 1 (if jobs <= 0 then recommended_jobs () else jobs) in
  let record = Printexc.backtrace_status () in
  let t =
    {
      size;
      mu = Mutex.create ();
      start_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      gen = 0;
      pending = 0;
      stop = false;
      domains = [||];
    }
  in
  t.domains <-
    Array.init (size - 1) (fun i ->
        let wid = i + 1 in
        Domain.spawn (fun () ->
            Printexc.record_backtrace record;
            worker_loop t wid));
  t

let size t = t.size

let run t f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let share worker =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Option.is_some (Atomic.get failure) then
          continue_ := false
        else
          match f ~worker tasks.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
            (* Keep the first failure with the backtrace captured on the
               worker that raised — a plain [raise] after the drain would
               rebuild the trace at the re-raise site and mask where the
               job actually died. *)
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      done
    in
    if t.size = 1 then share 0
    else begin
      Mutex.lock t.mu;
      t.job <- Some share;
      t.gen <- t.gen + 1;
      t.pending <- t.size - 1;
      Condition.broadcast t.start_cv;
      Mutex.unlock t.mu;
      share 0;
      Mutex.lock t.mu;
      while t.pending > 0 do
        Condition.wait t.done_cv t.mu
      done;
      t.job <- None;
      Mutex.unlock t.mu
    end;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function Some r -> r | None -> assert false (* all tasks ran *))
      results
  end

let shutdown t =
  if Array.length t.domains > 0 then begin
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.start_cv;
    Mutex.unlock t.mu;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map ~jobs f tasks =
  let n = Array.length tasks in
  let jobs = effective_jobs ~jobs n in
  if jobs = 1 then Array.map f tasks
  else with_pool ~jobs (fun p -> run p (fun ~worker:_ x -> f x) tasks)

let map_list ~jobs f tasks =
  Array.to_list (map ~jobs f (Array.of_list tasks))
