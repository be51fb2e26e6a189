(* Edge-case differential for the compiled backend's op kernels
   (lib/vm/opkernels.c): crafted one-block programs, one per op shape ×
   precision × smode × checked mode, run by Compile.run and by the
   interpreter, must agree bit for bit — heaps (every destination register
   is stored right after its op), counts, bcounts, steps, and trap
   addresses and reasons.  The inputs aim at the places where a C port of
   the OCaml arithmetic could drift: NaN payloads inside and outside the
   0x7FF4DEAD sentinel, signed zeros into min/max, subnormal results and
   overflow, and the reduced-format rounder's shift-52/shift-53 and tie
   cases. *)

let at off = Test_compile.at off

(* D too: its min/max and packed shapes run on the kernels *)
let precs = [ Ir.D; Ir.S; Ir.E (8, 23); Ir.E (5, 10); Ir.E (8, 7); Ir.E (3, 2) ]

let modes = [ (Vm.Flagged, false); (Vm.Flagged, true); (Vm.Plain, false); (Vm.Plain, true) ]

let mode_name (smode, checked) =
  (match smode with Vm.Flagged -> "flagged" | Vm.Plain -> "plain")
  ^ if checked then "-checked" else ""

let prec_name = function
  | Ir.D -> "D"
  | Ir.S -> "S"
  | Ir.E (e, m) -> Printf.sprintf "e%dm%d" e m

(* NaN patterns, raw: double quiet/signaling/negative NaNs outside the
   sentinel, binary32 quiet/signaling payloads inside it, and a
   sign-flipped sentinel (not a replaced value) *)
let nans =
  List.map Int64.float_of_bits
    [
      0x7FF8000000000000L;
      0x7FF8000000000123L;
      0x7FF0000000000001L;
      0xFFF8000000000000L;
      0x7FF4DEAD7FC00001L;
      0x7FF4DEAD7F800001L;
      0x7FF4DEADFFC00000L;
      0xFFF4DEAD3F800000L;
    ]

(* every value goes in raw and sentinel-encoded *)
let with_encoded vs = List.map Replaced.encode vs @ vs @ nans

(* unary inputs: the rounding edges of each format in [precs] *)
let unary_values =
  let p2 k = ldexp 1.0 k in
  [
    0.0; -0.0; 1.0; -1.0; 0.1; 3.0; infinity; neg_infinity;
    (* binary32: smallest subnormal, the tie below it, a subnormal tie,
       overflow *)
    p2 (-149); p2 (-150); 1.5 *. p2 (-149); 1e-40; Int32.float_of_bits 0x7F7FFFFFl; 3.5e38;
    (* half (emin -14, mbits 10): shift 52 at 2^-24, shift 53 at 2^-25, a
       normal tie, overflow *)
    p2 (-24); 1.5 *. p2 (-24); 1.25 *. p2 (-24); p2 (-25); 1.5 *. p2 (-25); p2 (-26);
    1.0 +. p2 (-11); 1.0 +. (3.0 *. p2 (-11)); 65504.0; 65519.0; 65520.0;
    (* bf16 (emin -126, mbits 7) *)
    1.5 *. p2 (-133); p2 (-134); 1.5 *. p2 (-134); 1.0 +. p2 (-8); 1.0 +. (3.0 *. p2 (-8));
    (* e3m2 (emin -2, emax 3, mbits 2) *)
    1.5 *. p2 (-4); p2 (-5); 1.5 *. p2 (-5); 1.125; 1.375; 14.0; 15.0; 16.0;
  ]

(* binary operands: signed zeros, NaNs, tiny and huge values, ties *)
let binary_values =
  [ 0.0; -0.0; 1.0; -1.0; 3.0; 0.1; 1e-40; ldexp 1.0 (-25); 1.0 +. ldexp 1.0 (-11); 3e38; 65520.0;
    infinity; neg_infinity ]

let int_inputs =
  [ 0; 1; -1; 3; 2049; 2051; 16777217; (1 lsl 53) + 1; (1 lsl 60) + (1 lsl 36) + 1; max_int; min_int ]

(* the operands a checked run accepts *)
let valid p smode v =
  match (p, smode) with
  | Ir.D, _ | _, Vm.Plain -> not (Replaced.is_replaced v)
  | _, Vm.Flagged -> Replaced.is_replaced v

let run_program ?expect_trap ((smode, checked) as mode) label ~inputs ~n_out ops =
  let fheap = List.length inputs + n_out in
  let prog = Test_compile.mk_prog ~n_fregs:8 ~n_iregs:4 ~fheap ~iheap:(max 1 n_out) ops in
  let setup vm = Vm.write_f vm 0 (Array.of_list inputs) in
  let label = Printf.sprintf "%s/%s" label (mode_name mode) in
  Test_compile.differential ~checked ~smode ~setup label prog;
  Option.iter
    (fun addr ->
      match Test_compile.run_with Vm.run ~checked ~smode ~setup prog with
      | Test_compile.Trapped (a, _), _ when a = addr -> ()
      | o, _ ->
          Alcotest.failf "%s: expected a trap at %d, got %s" label addr
            (Test_compile.outcome_str o))
    expect_trap

(* every ordered input pair through one binary shape *)
let binary_program mode p (shape : [ `Bin of Ir.fbinop | `Binp of Ir.fbinop | `Cmp of Ir.cmpop ]) =
  let smode, checked = mode in
  let inputs = with_encoded binary_values in
  let n = List.length inputs in
  let idx = List.filter (fun i -> (not checked) || valid p smode (List.nth inputs i)) (List.init n Fun.id) in
  let out = ref n and iout = ref 0 in
  let ops =
    List.concat_map
      (fun i ->
        List.concat_map
          (fun j ->
            match shape with
            | `Bin o ->
                let k = !out in
                incr out;
                [ Ir.Fload (0, at i); Ir.Fload (1, at j); Ir.Fbin (p, o, 2, 0, 1); Ir.Fstore (at k, 2) ]
            | `Binp o ->
                let k = !out in
                out := k + 2;
                [
                  Ir.Fload (0, at i); Ir.Fload (1, at j); Ir.Fload (2, at j); Ir.Fload (3, at i);
                  Ir.Fbinp (p, o, 4, 0, 2); Ir.Fstore (at k, 4); Ir.Fstore (at (k + 1), 5);
                ]
            | `Cmp c ->
                let k = !iout in
                incr iout;
                [ Ir.Fload (0, at i); Ir.Fload (1, at j); Ir.Fcmp (p, c, 0, 0, 1); Ir.Istore (at k, 0) ])
          idx)
      idx
  in
  run_program mode
    (Printf.sprintf "%s %s" (prec_name p)
       (match shape with `Bin _ -> "fbin" | `Binp _ -> "fbinp" | `Cmp _ -> "fcmp"))
    ~inputs ~n_out:(max (!out - n) !iout) ops

let unary_program mode p label (mk : int -> Ir.op list) =
  let smode, checked = mode in
  let inputs = with_encoded unary_values in
  let n = List.length inputs in
  let ops =
    List.concat
      (List.init n (fun i ->
           if checked && not (valid p smode (List.nth inputs i)) then []
           else Ir.Fload (0, at i) :: mk (n + i)))
  in
  run_program mode (Printf.sprintf "%s %s" (prec_name p) label) ~inputs ~n_out:n ops

let fbinops = [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Min; Ir.Max ]
let cmpops = [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge ]
let funops = [ Ir.Sqrt; Ir.Neg; Ir.Abs ]
let libms = [ Ir.Sin; Ir.Cos; Ir.Tan; Ir.Exp; Ir.Log; Ir.Atan ]

let test_binary_shapes () =
  List.iter
    (fun mode ->
      List.iter
        (fun p ->
          List.iter (fun o -> binary_program mode p (`Bin o)) fbinops;
          List.iter (fun o -> binary_program mode p (`Binp o)) fbinops;
          List.iter (fun c -> binary_program mode p (`Cmp c)) cmpops)
        precs)
    modes

let test_unary_shapes () =
  List.iter
    (fun mode ->
      List.iter
        (fun p ->
          let st k = [ Ir.Fstore (at k, 1) ] in
          List.iter (fun o -> unary_program mode p "funop" (fun k -> Ir.Funop (p, o, 1, 0) :: st k)) funops;
          List.iter (fun o -> unary_program mode p "flibm" (fun k -> Ir.Flibm (p, o, 1, 0) :: st k)) libms;
          unary_program mode p "f2i" (fun k -> [ Ir.Fcvt_f2i (p, 0, 0); Ir.Istore (at k, 0) ]);
          let ints = List.length int_inputs in
          run_program mode
            (prec_name p ^ " i2f")
            ~inputs:[] ~n_out:ints
            (List.concat
               (List.mapi
                  (fun k i -> [ Ir.Iconst (0, i); Ir.Fcvt_i2f (p, 1, 0); Ir.Fstore (at k, 1) ])
                  int_inputs)))
        precs)
    modes

(* the snippet ops: downcast of anything, upcast of every replaced input *)
let test_cast_shapes () =
  List.iter
    (fun mode ->
      unary_program mode Ir.S "downcast" (fun k -> [ Ir.Fdowncast (1, 0); Ir.Fstore (at k, 1) ]);
      let inputs = with_encoded unary_values in
      let n = List.length inputs in
      run_program mode "upcast" ~inputs ~n_out:n
        (List.concat
           (List.init n (fun i ->
                if Replaced.is_replaced (List.nth inputs i) then
                  [ Ir.Fload (0, at i); Ir.Fupcast (1, 0); Ir.Fstore (at (n + i), 1) ]
                else []))))
    modes

(* checked mode: a wrong-kind operand traps before the destination is
   written — first in slot a, then in slot b (and in the packed second
   lanes) *)
let test_checked_traps () =
  List.iter
    (fun smode ->
      let mode = (smode, true) in
      (* fheap: 0 good, 1 bad; registers 0-3 loaded from the slot list *)
      let trap_case ?(traps = true) p label slots op =
        let good, bad =
          if valid p smode 2.0 then (2.0, Replaced.encode 1.0) else (Replaced.encode 2.0, 1.0)
        in
        let expect_trap = if traps then Some (List.length slots) else None in
        run_program ?expect_trap mode
          (Printf.sprintf "%s trap %s" (prec_name p) label)
          ~inputs:[ good; bad ] ~n_out:2
          (List.mapi (fun r s -> Ir.Fload (r, at s)) slots
          @ [ op; Ir.Fstore (at 2, 4); Ir.Fstore (at 3, 5) ])
      in
      List.iter
        (fun p ->
          List.iter
            (fun (label, scalar, slots) ->
              trap_case ~traps:scalar p ("fbin " ^ label) slots (Ir.Fbin (p, Ir.Min, 4, 0, 2));
              trap_case p ("fbinp " ^ label) slots (Ir.Fbinp (p, Ir.Add, 4, 0, 2));
              trap_case ~traps:scalar p ("fcmp " ^ label) slots (Ir.Fcmp (p, Ir.Lt, 0, 0, 2)))
            [
              ("a", true, [ 1; 0; 0; 0 ]); ("b", true, [ 0; 0; 1; 0 ]);
              (* the second lanes are read by Fbinp only *)
              ("a+1", false, [ 0; 1; 0; 0 ]); ("b+1", false, [ 0; 0; 0; 1 ]);
            ];
          trap_case p "funop" [ 1 ] (Ir.Funop (p, Ir.Sqrt, 4, 0));
          trap_case p "flibm" [ 1 ] (Ir.Flibm (p, Ir.Exp, 4, 0));
          trap_case p "f2i" [ 1 ] (Ir.Fcvt_f2i (p, 0, 0)))
        precs;
      (* upcast wants a replaced operand whatever the mode *)
      trap_case Ir.S "upcast" [ 0; 1 ] (Ir.Fupcast (4, if smode = Vm.Flagged then 1 else 0)))
    [ Vm.Flagged; Vm.Plain ]

let suite =
  [
    ("binary shapes: compiled = interp on edge inputs", `Quick, test_binary_shapes);
    ("unary, libm and conversion shapes on edge inputs", `Quick, test_unary_shapes);
    ("downcast/upcast on edge inputs", `Quick, test_cast_shapes);
    ("checked-mode traps in slot a, then slot b", `Quick, test_checked_traps);
  ]
