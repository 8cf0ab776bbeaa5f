% Fixed: type inference treated `return` as a fall-through, so the
% function's output type came only from the path past the `if`: exact
% 1x3 here, while the call with c = 1 returns the 1x1 value 1. The
% `return` state now joins the fall-through state at function exit.
% entry: f0
% arg: scalar 1.0
function y = f0(c)
y = 1;
if c > 0
  return;
end
y = [1 2 3];
