% Fixed: a variable holding a logical on one path and a double on the
% other was inferred `int` (the lattice join bool ⊔ int), so compiled
% code kept it in an unboxed register and returned the double 1 where
% the interpreter returned logical true. Inference now joins a logical
% with a non-logical value to ⊤, which keeps the variable boxed.
% Found by the default fuzzing grammar (seed 5706).
% entry: f0
% arg: scalar 0.5
function r = f0(p0)
v = (1.0 >= 0.0);
if p0 > 5.0
  v = 0.0;
end
r = v;
