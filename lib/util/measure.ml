let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

let repeat ?(n = 5) f =
  if n < 1 then invalid_arg "Measure.repeat: n must be >= 1";
  Gc.full_major ();
  f ();
  Array.init n (fun _ ->
      Gc.major ();
      let t0 = now_ns () in
      f ();
      float_of_int (now_ns () - t0))
