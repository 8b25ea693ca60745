(** Cycle-accurate two-phase simulator for {!Netlist} modules.

    Each cycle:
    + the testbench drives input signals ([set_input]);
    + [settle] evaluates all combinational assignments in dependency order;
    + the testbench observes outputs ([value]);
    + [tick] commits register next-values and memory ports at the clock edge.

    Combinational loops are rejected at elaboration.

    This is the reference interpreter — the differential oracle the compiled
    backend ({!Soc_rtl_compile.Csim}) is checked against — so it stays a
    direct transcription of the netlist semantics. *)

(* Per-memory port, resolved once at [create] so [tick] touches no
   association structure on the hot path. *)
type mem_port = { mem : Netlist.mem; data : int array }

type t = {
  net : Netlist.t;
  values : int array; (* current value per signal id *)
  order : (Netlist.signal * Netlist.expr) array; (* combs in topological order *)
  mem_data : (string, int array) Hashtbl.t;
  (* Pre-resolved commit tables: rebuilt-per-tick lists would thrash the GC
     over the millions of cycles a differential run takes. *)
  regs : Netlist.reg array;
  mem_ports : mem_port array;
  reg_scratch : int array; (* next value per reg, or [disabled] *)
  mem_rd_scratch : int array; (* latched read data per mem *)
  mem_wr_scratch : int array; (* waddr (or -1 = no write), wdata; stride 2 *)
  mutable cycle : int;
}

(* Committed values are masked (hence non-negative), so any negative value
   is a safe "clock-enable low" sentinel. *)
let disabled = min_int

exception Combinational_cycle of string list

let mask_for width = Soc_util.Bits.mask width

let rec eval values (e : Netlist.expr) =
  match e with
  | Const (v, w) -> v land mask_for w
  | Ref s -> values.(s.sid)
  | Bin (op, a, b) -> Soc_kernel.Semantics.eval_binop op (eval values a) (eval values b)
  | Un (op, a) -> Soc_kernel.Semantics.eval_unop op (eval values a)
  | Mux (sel, a, b) -> if eval values sel <> 0 then eval values a else eval values b

(* Topologically sort combinational assignments by signal dependency. A comb
   target may depend on inputs, register outputs, memory read-data (all
   "state") and on other comb targets (must come later in the order).

   The DFS is iterative: generated netlists chain tens of thousands of
   combinational assignments (one per pipeline wire), far past what the
   OCaml call stack survives. Shared with the compiled backend's lowering
   pass, so both backends agree on evaluation order by construction. *)
let topo_combs (net : Netlist.t) =
  let arr = Array.of_list (List.rev net.combs) in
  let n = Array.length arr in
  let target_of = Hashtbl.create (2 * n) in
  Array.iteri (fun idx ((s : Netlist.signal), _) -> Hashtbl.replace target_of s.sid idx) arr;
  let state = Array.make n 0 in
  (* 0 unvisited, 1 visiting (on the explicit stack), 2 done *)
  let order = ref [] in
  let cycle_from idx stack =
    (* Everything still marked "visiting" on the stack is the path into the
       cycle; cut it down to the names from the first occurrence of [idx]. *)
    let names =
      List.rev_map (fun i -> (fst arr.(i)).Netlist.sname)
        (idx :: List.filter (fun i -> state.(i) = 1) stack)
    in
    let rec drop = function
      | [] -> names
      | x :: _ as l when x = (fst arr.(idx)).Netlist.sname -> l
      | _ :: tl -> drop tl
    in
    raise (Combinational_cycle (drop names))
  in
  (* Each frame is the comb index; [deps] are expanded lazily the first time
     the frame is seen, then the frame is revisited to emit in post-order. *)
  let visit root =
    if state.(root) = 0 then begin
      let stack = ref [ root ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | idx :: rest ->
          if state.(idx) = 2 then stack := rest
          else if state.(idx) = 1 then begin
            (* Post-order: all dependencies emitted. *)
            state.(idx) <- 2;
            order := arr.(idx) :: !order;
            stack := rest
          end
          else begin
            state.(idx) <- 1;
            let (_, e) = arr.(idx) in
            let deps = Netlist.expr_refs [] e in
            let pushed = ref rest in
            (* Keep the frame under its dependencies for the post-order
               revisit. *)
            pushed := idx :: !pushed;
            List.iter
              (fun sid ->
                match Hashtbl.find_opt target_of sid with
                | Some didx ->
                  if state.(didx) = 1 then cycle_from didx !stack
                  else if state.(didx) = 0 then pushed := didx :: !pushed
                | None -> ())
              deps;
            stack := !pushed
          end
      done
    end
  in
  for i = 0 to n - 1 do
    visit i
  done;
  Array.of_list (List.rev !order)

let create (net : Netlist.t) =
  let values = Array.make (Netlist.signal_count net) 0 in
  List.iter
    (fun (r : Netlist.reg) -> values.(r.q.sid) <- r.reset_value land mask_for r.q.width)
    net.regs;
  let mem_data = Hashtbl.create 4 in
  List.iter
    (fun (m : Netlist.mem) ->
      let data =
        match m.init with
        | Some init ->
          Array.init m.size (fun i ->
              if i < Array.length init then init.(i) land mask_for m.mem_width else 0)
        | None -> Array.make m.size 0
      in
      Hashtbl.replace mem_data m.mem_name data)
    net.mems;
  let regs = Array.of_list net.regs in
  let mem_ports =
    Array.of_list
      (List.map
         (fun (m : Netlist.mem) -> { mem = m; data = Hashtbl.find mem_data m.mem_name })
         net.mems)
  in
  {
    net;
    values;
    order = topo_combs net;
    mem_data;
    regs;
    mem_ports;
    reg_scratch = Array.make (Array.length regs) disabled;
    mem_rd_scratch = Array.make (Array.length mem_ports) 0;
    mem_wr_scratch = Array.make (2 * Array.length mem_ports) (-1);
    cycle = 0;
  }

let set_input t (s : Netlist.signal) v =
  if not (Netlist.is_input t.net s) then
    invalid_arg ("Sim.set_input: " ^ s.sname ^ " is not an input");
  t.values.(s.sid) <- v land mask_for s.width

let settle t =
  Array.iter
    (fun ((s : Netlist.signal), e) -> t.values.(s.sid) <- eval t.values e land mask_for s.width)
    t.order

let value t (s : Netlist.signal) = t.values.(s.sid)

let mem_contents t name = Hashtbl.find_opt t.mem_data name

(* Clock edge: registers and memory ports update simultaneously from the
   settled pre-edge values. Two phases over pre-sized scratch arrays — all
   evaluation first, then all commits — so no per-tick allocation. *)
let tick t =
  let values = t.values in
  for i = 0 to Array.length t.regs - 1 do
    let r = t.regs.(i) in
    t.reg_scratch.(i) <-
      (if eval values r.enable <> 0 then eval values r.next land mask_for r.q.width
       else disabled)
  done;
  for i = 0 to Array.length t.mem_ports - 1 do
    let { mem = m; data } = t.mem_ports.(i) in
    let raddr = eval values m.raddr in
    t.mem_rd_scratch.(i) <- (if raddr >= 0 && raddr < m.size then data.(raddr) else 0);
    if eval values m.wen <> 0 then begin
      let waddr = eval values m.waddr in
      if waddr >= 0 && waddr < m.size then begin
        t.mem_wr_scratch.(2 * i) <- waddr;
        t.mem_wr_scratch.((2 * i) + 1) <- eval values m.wdata land mask_for m.mem_width
      end
      else t.mem_wr_scratch.(2 * i) <- -1
    end
    else t.mem_wr_scratch.(2 * i) <- -1
  done;
  for i = 0 to Array.length t.regs - 1 do
    let next = t.reg_scratch.(i) in
    if next <> disabled then values.(t.regs.(i).q.sid) <- next
  done;
  for i = 0 to Array.length t.mem_ports - 1 do
    let { mem = m; data } = t.mem_ports.(i) in
    values.(m.rdata.sid) <- t.mem_rd_scratch.(i);
    let waddr = t.mem_wr_scratch.(2 * i) in
    if waddr >= 0 then data.(waddr) <- t.mem_wr_scratch.((2 * i) + 1)
  done;
  t.cycle <- t.cycle + 1

let cycle t = t.cycle

(* Reset all registers and memories to their initial state. *)
let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  List.iter
    (fun (r : Netlist.reg) -> t.values.(r.q.sid) <- r.reset_value land mask_for r.q.width)
    t.net.regs;
  List.iter
    (fun (m : Netlist.mem) ->
      let data = Hashtbl.find t.mem_data m.mem_name in
      (match m.init with
      | Some init ->
        Array.iteri
          (fun i _ -> data.(i) <- (if i < Array.length init then init.(i) land mask_for m.mem_width else 0))
          data
      | None -> Array.fill data 0 (Array.length data) 0))
    t.net.mems;
  t.cycle <- 0
