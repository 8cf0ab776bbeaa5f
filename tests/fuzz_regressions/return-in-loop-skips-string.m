% Fixed: type inference treated a `return` inside a `for` loop as a
% fall-through, so the output type was the string assigned after the
% loop, while the call with n = 3 returns the int 3 from inside the
% loop. The `return` state now joins at function exit.
% entry: f0
% arg: scalar 3.0
function y = f0(n)
y = 0;
for k = 1:n
  y = k;
  if k >= n
    return;
  end
end
y = 'abc';
