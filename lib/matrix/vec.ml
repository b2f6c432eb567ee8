type t = float array

let create n = Array.make n 0.
let init = Array.init
let copy = Array.copy
let ones n = Array.make n 1.
let ramp n = Array.init n (fun i -> float_of_int (i + 1))
let fill x a = Array.fill x 0 (Array.length x) a

let check_same_length name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let scal alpha x =
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set x i (alpha *. Array.unsafe_get x i)
  done

let axpy alpha x y =
  check_same_length "axpy" x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set y i
      ((alpha *. Array.unsafe_get x i) +. Array.unsafe_get y i)
  done

let dot x y =
  check_same_length "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc

(* Scaled two-pass formulation: divide by the max magnitude first so the
   squares cannot overflow even for vectors of huge elements. *)
let nrm2 x =
  let n = Array.length x in
  if n = 0 then 0.
  else begin
    let amax = ref 0. in
    for i = 0 to n - 1 do
      let a = abs_float (Array.unsafe_get x i) in
      if a > !amax then amax := a
    done;
    (* [a > !amax] skips NaNs, so an all-zero scan may still have seen
       one: a NaN vector must not read as norm 0 *)
    if Float.equal !amax 0. then
      if Array.exists Float.is_nan x then Float.nan else 0.
    else begin
      let scale = !amax in
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get x i /. scale in
        acc := !acc +. (v *. v)
      done;
      scale *. sqrt !acc
    end
  end

let asum x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. abs_float (Array.unsafe_get x i)
  done;
  !acc

let iamax x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Vec.iamax: empty vector";
  let best = ref 0 and best_abs = ref (abs_float x.(0)) in
  for i = 1 to n - 1 do
    let a = abs_float (Array.unsafe_get x i) in
    if a > !best_abs then begin
      best := i;
      best_abs := a
    end
  done;
  !best

let add x y =
  check_same_length "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_same_length "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let map = Array.map

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  && begin
       let ok = ref true in
       for i = 0 to Array.length x - 1 do
         if abs_float (x.(i) -. y.(i)) > tol then ok := false
       done;
       !ok
     end

let pp fmt x =
  Format.fprintf fmt "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
       (fun f v -> Format.fprintf f "%.4g" v))
    (Array.to_list x)
