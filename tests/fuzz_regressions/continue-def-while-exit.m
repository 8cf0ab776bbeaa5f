% Fixed: the `while` form of continue-def-for-exit. A definition made
% only on the `continue` path was lost at the loop exit, so compiled
% code read the builtin `i` (0+1i) where the interpreter read 5.
% entry: f0
% arg: scalar 3.0
function y = f0(n)
k = 0;
while k < n
  k = k + 1;
  if k > 0
    i = 5;
    continue;
  end
end
y = i;
