"""Reverse-mode autodiff on the float64 tensor core.

Builds a small conv -> tanh -> mean graph, backpropagates, and checks one
kernel coordinate against a central finite difference.
"""

import numpy as np

from memvo.tensor import Tensor, add, conv2d, div, finite_diff_check, mul, tanh, tsum

rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(1, 6, 6)))
kernel = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.5, requires_grad=True)
bias = Tensor(np.zeros(2), requires_grad=True)


def forward(_):
    out = tanh(conv2d(x, kernel, bias, stride=1, padding=1))
    return div(tsum(out), float(out.data.size))


loss = forward(None)
loss.backward()
print("loss            %.10f" % loss.data)
print("kernel grad     shape %s, |grad| %.6f" % (kernel.grad.shape,
                                                 np.linalg.norm(kernel.grad)))

analytic = kernel.grad.ravel()[7]
err = finite_diff_check(forward, kernel, h=1e-5, coords=[7])
print("coordinate 7    analytic %.10f, rel err vs central diff %.2e" %
      (analytic, err))

# the same tape also differentiates elementwise arithmetic
a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
b = tsum(add(mul(a, a), mul(a, 2.0)))
b.backward()
print("d/da sum(a^2+2a) = %s (expect 2a+2 = [4 6 8])" % a.grad)
