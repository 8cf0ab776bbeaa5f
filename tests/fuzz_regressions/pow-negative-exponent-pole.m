% Fixed: the range of x^n for a negative constant n took the images of
% the interval's endpoints even across the pole at zero, so a loop
% counter widened to <-Inf,1> and then counted down to 0 gave
% g^-1 the range <-0,1> although the runtime returns Inf.
% Found by the default grammar beyond the smoke budget (seed 2845).
% entry: f0
function r = f0()
g0 = 1;
while (g0 > 0) & (1.0)
  g0 = g0 - 1;
end
r = (g0 .^ (-1.0));
