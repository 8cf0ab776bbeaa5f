% Fixed: type inference treated `return` as a fall-through, so the
% output type was the constant 7 assigned after the `if`, while the
% call with c = 1 returns -5 from the early `return`. The `return`
% state now joins the fall-through state at function exit.
% entry: f0
% arg: scalar 1.0
function y = f0(c)
y = -5;
if c > 0
  return;
end
y = 7;
